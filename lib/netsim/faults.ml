type event =
  | Set_rate of float
  | Outage of float
  | Burst of { flow : int; pkt_size : int; count : int }
  | Command of string

type timeline = (float * event) list

let schedule ?on_command ?(link = 0) sim timeline =
  List.iter
    (fun (at, ev) ->
      match ev with
      | Set_rate r ->
          Sim.at sim at (fun ~now:_ -> Sim.set_link_rate ~link sim r)
      | Outage d ->
          (* both edges scheduled up front, so a timeline is replayable
             without the callback rescheduling anything *)
          Sim.at sim at (fun ~now:_ -> Sim.set_link_up ~link sim false);
          Sim.at sim (at +. d) (fun ~now:_ -> Sim.set_link_up ~link sim true)
      | Burst { flow; pkt_size; count } ->
          Sim.add_source sim (Source.burst ~flow ~pkt_size ~count ~at)
      | Command s -> (
          match on_command with
          | Some f -> Sim.at sim at (fun ~now -> f ~now s)
          | None -> ()))
    timeline

(* Malformed / hostile control lines a fault run throws at the engine:
   parse errors, unknown names, structural violations, over-commits.
   The engine must reject every one without corrupting the scheduler. *)
let bad_commands =
  [|
    "add class nowhere.kid fsc 1Mbit";
    "delete class root";
    "modify class root rsc umax 1500 dmax 10ms rate 1Mbit";
    "add class root.dup fsc not-a-rate";
    "attach filter flow 1 class nowhere";
    "detach filter flow 999999";
    "stats class nowhere";
    "add class root.hog rsc rate 100Gbit";
    "modify class root qlimit -3";
    "limit pkts 0";
    "frobnicate the scheduler";
    "add class root rsc rate 1Mbit ulimit rate 1kbit";
  |]

let random_timeline ~seed ~horizon ~link_rate ~flows =
  if horizon <= 0. then
    invalid_arg "Faults.random_timeline: horizon must be positive";
  if link_rate <= 0. then
    invalid_arg "Faults.random_timeline: link_rate must be positive";
  let st = Random.State.make [| 0x5eed; seed |] in
  let nflows = List.length flows in
  let n_events = 4 + Random.State.int st 8 in
  let events =
    List.init n_events (fun _ ->
        let at = Random.State.float st horizon in
        let ev =
          match Random.State.int st (if nflows = 0 then 3 else 4) with
          | 0 ->
              (* flap between 10% and 150% of nominal *)
              Set_rate (link_rate *. (0.1 +. (1.4 *. Random.State.float st 1.)))
          | 1 -> Outage (horizon *. (0.02 +. Random.State.float st 0.08))
          | 2 ->
              Command
                bad_commands.(Random.State.int st (Array.length bad_commands))
          | _ ->
              let flow = List.nth flows (Random.State.int st nflows) in
              Burst
                {
                  flow;
                  pkt_size = 64 + Random.State.int st 1436;
                  count = 1 + Random.State.int st 64;
                }
        in
        (at, ev))
  in
  List.sort (fun (a, _) (b, _) -> Float.compare a b) events
