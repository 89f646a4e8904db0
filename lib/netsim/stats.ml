module Delay = struct
  (* All-float, hence a flat record: accumulating never boxes. *)
  type acc = { mutable sum : float; mutable mx : float; mutable mn : float }

  type t = { mutable data : float array; mutable used : int; acc : acc }

  let create () =
    { data = Array.make 64 0.; used = 0;
      acc = { sum = 0.; mx = neg_infinity; mn = infinity } }

  let add t v =
    if t.used = Array.length t.data then begin
      let data = Array.make (2 * t.used) 0. in
      Array.blit t.data 0 data 0 t.used;
      t.data <- data
    end;
    t.data.(t.used) <- v;
    t.used <- t.used + 1;
    let a = t.acc in
    a.sum <- a.sum +. v;
    if v > a.mx then a.mx <- v;
    if v < a.mn then a.mn <- v

  let count t = t.used
  let mean t = if t.used = 0 then 0. else t.acc.sum /. float_of_int t.used
  let max t = t.acc.mx
  let min t = t.acc.mn

  let percentile t p =
    if t.used = 0 then invalid_arg "Delay.percentile: no samples";
    if p < 0. || p > 1. then invalid_arg "Delay.percentile: p outside [0,1]";
    let sorted = Array.sub t.data 0 t.used in
    Array.sort Float.compare sorted;
    let rank =
      Stdlib.min (t.used - 1)
        (int_of_float (Float.round (p *. float_of_int (t.used - 1))))
    in
    sorted.(rank)

  let samples t = Array.sub t.data 0 t.used
end

module Throughput = struct
  (* One class's bytes per bin, dense from bin 0 (a flat float array,
     so accumulating never boxes); [used] is one past the highest bin
     touched. *)
  type bins = { mutable bytes : float array; mutable used : int }

  (* keyed by class name with [String.equal], not the polymorphic
     compare *)
  module Tbl = Hashtbl.Make (struct
    type t = string

    let equal = String.equal
    let hash (s : string) = Hashtbl.hash s
  end)

  type t = { bin : float; tbl : bins Tbl.t }

  let create ~bin () =
    if bin <= 0. then invalid_arg "Throughput.create: bin must be > 0";
    { bin; tbl = Tbl.create 16 }

  let add t ~cls ~now bytes =
    let b =
      match Tbl.find t.tbl cls with
      | b -> b
      | exception Not_found ->
          let b = { bytes = Array.make 64 0.; used = 0 } in
          Tbl.add t.tbl cls b;
          b
    in
    let i = if Float.is_nan now then -1 else int_of_float (now /. t.bin) in
    if i < 0 then invalid_arg "Throughput.add: time before 0 or NaN";
    if i >= Array.length b.bytes then begin
      let a = Array.make (Stdlib.max (i + 1) (2 * Array.length b.bytes)) 0. in
      Array.blit b.bytes 0 a 0 b.used;
      b.bytes <- a
    end;
    b.bytes.(i) <- b.bytes.(i) +. float_of_int bytes;
    if i >= b.used then b.used <- i + 1

  let series t ~cls =
    match Tbl.find_opt t.tbl cls with
    | None -> []
    | Some b ->
        List.init b.used (fun i ->
            (float_of_int i *. t.bin, b.bytes.(i) /. t.bin))

  let classes t =
    List.sort String.compare
      (Tbl.fold (fun k _ acc -> k :: acc) t.tbl [])
end
