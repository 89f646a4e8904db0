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
    if not (p >= 0. && p <= 1.) then
      invalid_arg "Delay.percentile: p outside [0,1]";
    let sorted = Array.sub t.data 0 t.used in
    Array.sort Float.compare sorted;
    let rank =
      Stdlib.min (t.used - 1)
        (int_of_float (Float.round (p *. float_of_int (t.used - 1))))
    in
    sorted.(rank)

  let samples t = Array.sub t.data 0 t.used
end

module Flow_delay = struct
  type t = Delay.t Ds.Int_table.t

  let create () = Ds.Int_table.create 16
  let find = Ds.Int_table.find_opt

  let add t ~flow v =
    match Ds.Int_table.find t flow with
    | d -> Delay.add d v
    | exception Not_found ->
        let d = Delay.create () in
        Ds.Int_table.replace t flow d;
        Delay.add d v

  let attach sim =
    let t = create () in
    Sim.on_departure sim (fun ~now served ->
        let p = served.Sched.Scheduler.pkt in
        add t ~flow:p.Pkt.Packet.flow (now -. p.Pkt.Packet.arrival));
    t
end

module Throughput = struct
  (* One class's bytes per bin, dense from bin 0 (a flat float array,
     so accumulating never boxes); [used] is one past the highest bin
     touched. *)
  type bins = { mutable bytes : float array; mutable used : int }
  type t = { bin : float; tbl : (string, bins) Hashtbl.t }

  let add t ~cls ~now bytes =
    let b =
      match Hashtbl.find t.tbl cls with
      | b -> b
      | exception Not_found ->
          let b = { bytes = Array.make 64 0.; used = 0 } in
          Hashtbl.add t.tbl cls b;
          b
    in
    (* a departure time is finite and not negative *)
    let i = int_of_float (now /. t.bin) in
    if i >= Array.length b.bytes then begin
      let a = Array.make (Stdlib.max (i + 1) (2 * Array.length b.bytes)) 0. in
      Array.blit b.bytes 0 a 0 b.used;
      b.bytes <- a
    end;
    b.bytes.(i) <- b.bytes.(i) +. float_of_int bytes;
    if i >= b.used then b.used <- i + 1

  let series t ~cls =
    match Hashtbl.find_opt t.tbl cls with
    | None -> []
    | Some b ->
        List.init b.used (fun i ->
            (float_of_int i *. t.bin, b.bytes.(i) /. t.bin))

  let attach ~bin sim =
    if not (Float.is_finite bin && bin > 0.) then
      invalid_arg "Throughput.attach: bin must be finite and positive";
    let t = { bin; tbl = Hashtbl.create 16 } in
    Sim.on_departure sim (fun ~now served ->
        add t ~cls:served.Sched.Scheduler.cls ~now
          served.Sched.Scheduler.pkt.Pkt.Packet.size);
    t

  let classes t =
    List.sort String.compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [])
end

module Csv_trace = struct
  type t = int ref

  let attach oc sim =
    output_string oc "time,flow,seq,size,class,criterion,delay\n";
    let t = ref 0 in
    Sim.on_departure sim (fun ~now served ->
        let p = served.Sched.Scheduler.pkt in
        Printf.fprintf oc "%.9f,%d,%d,%d,%s,%s,%.9f\n" now p.Pkt.Packet.flow
          p.Pkt.Packet.seq p.Pkt.Packet.size served.Sched.Scheduler.cls
          served.Sched.Scheduler.criterion (now -. p.Pkt.Packet.arrival);
        incr t);
    t

  let rows t = !t
end
