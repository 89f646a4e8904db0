type t = { flow : int; size : int; seq : int; arrival : float }

let make ~flow ~size ~seq ~arrival =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  if seq < 0 then invalid_arg "Packet.make: seq must be non-negative";
  if not (Float.is_finite arrival) then
    invalid_arg "Packet.make: arrival must be finite";
  { flow; size; seq; arrival }

let compare a b =
  let c = Int.compare a.flow b.flow in
  if c <> 0 then c else Int.compare a.seq b.seq

let equal a b = compare a b = 0
