(* A tandem is a {!Sim} whose links are the hops, named [hop0]..[hopN].
   Sources are routed by flow to the hop they enter at; one departure
   hook, registered first so it fires after every user hook, carries a
   packet on to the next hop or records its end-to-end delay. *)

type t = {
  sim : Sim.t;
  last : int; (* index of the last hop *)
  entry : (int, int) Hashtbl.t; (* flow -> the hop it enters at *)
  (* hop-0 arrival times of packets past hop 0, keyed by (flow, seq):
     each hop restamps the arrival, so the key identifies the packet
     across hops *)
  entered : (int * int, float) Hashtbl.t;
  delays : Stats.Flow_delay.t;
}

let depart t ~link:hop ~now (served : Sched.Scheduler.served) =
  let pkt = served.Sched.Scheduler.pkt in
  let flow = pkt.Pkt.Packet.flow in
  let key = (flow, pkt.Pkt.Packet.seq) in
  (* only hop-0 entrants reach hop 0, stamped with their entry time *)
  if hop = 0 then Hashtbl.replace t.entered key pkt.Pkt.Packet.arrival;
  if hop < t.last then begin
    let next =
      Pkt.Packet.make ~flow ~size:pkt.Pkt.Packet.size ~seq:pkt.Pkt.Packet.seq
        ~arrival:now
    in
    if not (Sim.enqueue t.sim ~link:(hop + 1) next) then
      Hashtbl.remove t.entered key
  end
  else
    match Hashtbl.find_opt t.entered key with
    | Some t0 ->
        Hashtbl.remove t.entered key;
        Stats.Flow_delay.add t.delays ~flow (now -. t0)
    | None -> ()

let create ~hops () =
  let entry = Hashtbl.create 16 in
  let link i (rate, sched) = ("hop" ^ string_of_int i, rate, sched) in
  let sim =
    Sim.create_multi ~links:(List.mapi link hops)
      ~route:(fun pkt -> Hashtbl.find_opt entry pkt.Pkt.Packet.flow)
      ()
  in
  let t =
    {
      sim;
      last = List.length hops - 1;
      entry;
      entered = Hashtbl.create 256;
      delays = Stats.Flow_delay.create ();
    }
  in
  Sim.on_link_departure sim (depart t);
  t

let add_source_at t ~hop src =
  if hop < 0 || hop > t.last then
    invalid_arg "Tandem.add_source_at: hop out of range";
  let flow = Source.flow src in
  (match Hashtbl.find_opt t.entry flow with
  | Some h when h <> hop ->
      invalid_arg
        (Printf.sprintf "Tandem.add_source_at: flow %d already enters at hop %d"
           flow h)
  | _ -> Hashtbl.replace t.entry flow hop);
  Sim.add_source t.sim src

let add_source t src = add_source_at t ~hop:0 src

let on_hop_departure t f =
  Sim.on_link_departure t.sim (fun ~link ~now served -> f ~hop:link ~now served)

let run t ~until = Sim.run t.sim ~until
let run_until_idle t ~max_time = Sim.run_until_idle t.sim ~max_time
let now t = Sim.now t.sim
let end_to_end_delay t flow = Stats.Flow_delay.find t.delays flow
let delivered_bytes t = Sim.link_transmitted_bytes t.sim t.last
let drops t = Sim.enqueue_drops t.sim
