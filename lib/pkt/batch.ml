type t = {
  pkts : Packet.t array;
  ids : int array;
  rt : bool array;
  mutable count : int;
}

let dummy = Packet.make ~flow:0 ~size:1 ~seq:0 ~arrival:0.

let create ?(capacity = 64) () =
  if capacity <= 0 then invalid_arg "Batch.create: capacity must be positive";
  {
    pkts = Array.make capacity dummy;
    ids = Array.make capacity 0;
    rt = Array.make capacity false;
    count = 0;
  }

let capacity b = Array.length b.pkts
let count b = b.count

let[@inline] check b i =
  if i < 0 || i >= b.count then invalid_arg "Batch: index out of range"

let pkt b i =
  check b i;
  Array.unsafe_get b.pkts i

let id b i =
  check b i;
  Array.unsafe_get b.ids i

let realtime b i =
  check b i;
  Array.unsafe_get b.rt i
