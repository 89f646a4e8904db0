type t = {
  mutable o_pkt : Packet.t;
  mutable o_id : int;
  mutable o_rt : bool;
}

let create () =
  { o_pkt = Packet.make ~flow:0 ~size:1 ~seq:0 ~arrival:0.; o_id = 0;
    o_rt = false }
