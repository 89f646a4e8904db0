(* The device-level control plane, written once over an abstract link
   "port". A port is one link's engine endpoint: the sequential
   {!Router} instantiates it with a bare [Engine.t] (direct calls); the
   multicore {!Mc_router} instantiates it with a worker handle whose
   calls hand a closure to the owning worker domain and wait for its
   reply. Everything observable — reply strings, typed
   errors, routing rules, directory bookkeeping — lives here, so the
   two routers cannot drift apart: the N-domain router is bit-identical
   to the sequential one on the control plane {e by construction}.

   Only the control plane lives here, and the building of links: every
   link's engine is made here, empty, by [link add] — a config's links
   too, since a config is run as commands — and handed to the router's
   [port] wrapper.
   The per-packet data path is port-specific (a directory hit must stay
   allocation-free in the sequential router, and must become a post to
   the owning worker in the multicore one), so each router supplies its own
   through [adapter]; [adapters] lists every link's, so a simulation
   is wired the same way over either router. *)

(* The port operations. [call] is the control-plane call: it may
   block (a worker round trip) and may allocate.

   [call p ~down f] runs [f] on the link's engine and returns its
   result; on a link that is down it answers [down e] instead, [e]
   being why. For a worker port [f] runs on the worker's domain, so it
   may touch only the engine and values the producer does not mutate
   before the reply. *)
type 'p ops = {
  call : 'a. 'p -> down:(exn -> 'a) -> (Engine.t -> 'a) -> 'a;
  adapter : 'p -> Backend.kind -> Sched.Scheduler.t;
      (* the link's data path, packaged for {!Netsim.Sim} *)
}

type 'p t = {
  mutable links : (string * 'p) list; (* creation = classifier order *)
  (* device-wide flow directory (a flat int-keyed table); the port
     rides along so the per-packet path of the instantiating router is
     one lookup that allocates nothing. The engines own the flow maps;
     this is a cache of their union, updated in place by each command
     that maps or unmaps flows (see [exec_on]) — never rebuilt by
     scanning, so a class op costs O(its flows), not O(the link's
     flows). *)
  flow_links : (string * 'p) Ds.Int_table.t;
  (* each link's rate and backend, fixed for its lifetime and recorded
     when the link is made, so a downed link still lists and
     checkpoints as itself *)
  specs : (string, float * Backend.kind) Hashtbl.t;
  ops : 'p ops;
  new_port : link_rate:float -> Backend.kind -> 'p;
      (* what [link add] attaches: an empty engine in the router's port *)
}

let ( let* ) = Result.bind

(* [port eng] wraps a freshly built engine as the router's port: the
   engine itself for the sequential router, a handle on a worker
   domain for the multicore one. The engine knobs apply to every link
   the router builds, including those added later. *)
let create ?trace_capacity ?audit_every ~ops ~port () =
  {
    links = [];
    flow_links = Ds.Int_table.create 16;
    specs = Hashtbl.create 16;
    ops;
    new_port =
      (fun ~link_rate backend ->
        port
          (Engine.create_link ?trace_capacity ?audit_every ~link_rate
             backend));
  }

let links t = t.links
let find_entry t name = List.find_opt (fun (n, _) -> n = name) t.links
let find_link t name = Option.map snd (find_entry t name)
let link_count t = List.length t.links
let link_of_flow t flow =
  Option.map fst (Ds.Int_table.find_opt t.flow_links flow)

(* [(rate, backend)] of a link *)
let spec t name = Hashtbl.find t.specs name

(* [(name, rate, data path)] of every link, in creation order *)
let adapters t =
  List.map
    (fun (name, p) ->
      let rate, kind = spec t name in
      (name, rate, t.ops.adapter p kind))
    t.links

let down_error name e =
  Engine.errf Engine.Link_failed "link %S is down: %s" name
    (Printexc.to_string e)

(* one command on one link's engine; a downed link answers [Link_failed] *)
let exec_op t (name, p) ~now op =
  t.ops.call p ~down:(down_error name) (fun eng -> Engine.exec_op eng ~now op)

(* Append a link that arrives with flows already mapped (a prebuilt
   engine) and fill the directory from its flow map: O(the link's
   flows); commands keep the directory current in place afterwards. *)
let adopt t ((name, port) as link) =
  let spec, flows =
    t.ops.call port ~down:raise (fun eng ->
        ((Engine.link_rate eng, Engine.backend_kind eng), Engine.flows eng))
  in
  t.links <- t.links @ [ link ];
  Hashtbl.replace t.specs name spec;
  List.iter (fun f -> Ds.Int_table.replace t.flow_links f link) flows

(* The router verbs: a link so named could never be addressed, since
   [link add NAME ...] parses as the verb. *)
let reserved_link_names = [ "add"; "delete"; "list" ]

let add_link t ~name ~link_rate ~backend =
  let* () =
    if List.mem name reserved_link_names then
      Engine.errf Engine.Bad_value
        "link name %S is reserved (a control-command verb)" name
    else Ok ()
  in
  let* () =
    match find_link t name with
    | Some _ -> Engine.errf Engine.Duplicate_link "link %S already exists" name
    | None -> Ok ()
  in
  let* () =
    if (not (Float.is_finite link_rate)) || link_rate <= 0. then
      Engine.errf Engine.Bad_value
        "link rate must be finite and positive, got %g" link_rate
    else if
      backend = Backend.Hfsc_kind
      && (link_rate < Curve.Fixed_point.min_rate
         || link_rate > Curve.Fixed_point.max_rate)
    then
      Engine.errf Engine.Bad_value
        "link rate %g B/s out of range for hfsc (fixed point represents %g \
         to 2^31 B/s)"
        link_rate Curve.Fixed_point.min_rate
    else Ok ()
  in
  let port = t.new_port ~link_rate backend in
  t.links <- t.links @ [ (name, port) ];
  Hashtbl.replace t.specs name (link_rate, backend);
  Ok
    (Printf.sprintf "added link %S (rate %.0f B/s%s, %d link%s)" name link_rate
       (match backend with
       | Backend.Hfsc_kind -> ""
       | Backend.Rr_kind -> " backend rr")
       (link_count t)
       (if link_count t > 1 then "s" else ""))

let delete_link t name =
  match find_link t name with
  | None -> Engine.errf Engine.Unknown_link "unknown link %S" name
  | Some port ->
      let orphans =
        Ds.Int_table.fold
          (fun f (_, p) acc -> if p == port then f :: acc else acc)
          t.flow_links []
        |> List.sort compare
      in
      List.iter (Ds.Int_table.remove t.flow_links) orphans;
      t.links <- List.filter (fun (n, _) -> n <> name) t.links;
      Hashtbl.remove t.specs name;
      Ok
        (Printf.sprintf "deleted link %S%s (%d link%s left)" name
           (match orphans with
           | [] -> ""
           | fs ->
               Printf.sprintf " (unmapped flow%s %s)"
                 (if List.length fs > 1 then "s" else "")
                 (String.concat ", " (List.map string_of_int fs)))
           (link_count t)
           (if link_count t = 1 then "" else "s"))

let link_list t =
  match t.links with
  | [] -> Ok "no links"
  | ls ->
      Ok
        (String.concat "\n"
           (List.map
              (fun (name, p) ->
                let rate, backend = spec t name in
                let classes, flows, pkts, bytes =
                  t.ops.call p
                    ~down:(fun _ -> (0, 0, 0, 0))
                    (fun eng ->
                      ( List.length (Backend.class_ids (Engine.backend eng)),
                        Engine.flow_count eng,
                        Engine.backlog_pkts eng,
                        Engine.backlog_bytes eng ))
                in
                Printf.sprintf
                  "%-12s rate %.0f B/s%s  classes %d  flows %d  backlog %d/%d"
                  name rate
                  (match backend with
                  | Backend.Hfsc_kind -> ""
                  | Backend.Rr_kind -> " backend rr")
                  classes flows pkts bytes)
              ls))

(* The device-wide uniqueness and ownership checks a bare engine cannot
   make, applied before the op reaches the owning engine. *)
let precheck t name port (op : Command.op) =
  match op with
  | Command.Add_class { flow = Some f; _ } -> (
      match Ds.Int_table.find_opt t.flow_links f with
      | Some (owner, p) when p != port ->
          Engine.errf Engine.Duplicate_flow
            "flow %d is already mapped on link %S" f owner
      | _ -> Ok ())
  | Command.Attach_filter { fflow; _ } -> (
      match Ds.Int_table.find_opt t.flow_links fflow with
      | Some (owner, p) when p != port ->
          Engine.errf Engine.Cross_link_filter
            "flow %d belongs to link %S, not %S: a filter must live on the \
             link that owns its flow"
            fflow owner name
      | _ -> Ok ())
  | _ -> Ok ()

(* The directory follows the engine's flow map op by op: a successful
   [add class ... flow F] maps exactly F, a successful [delete class]
   unmaps exactly the flows the class owned (asked of the engine before
   the delete, while the class still exists), and no other command
   touches flows. [link] is the link's own [(name, port)] entry in
   [links]; every directory entry of the link shares it, so a lookup
   touches one hot pair, not a pair per flow. *)
let exec_on t ~now ((name, port) as link) op =
  let* () = precheck t name port op in
  let unmapped =
    match op with
    | Command.Delete_class cls ->
        t.ops.call port ~down:(fun _ -> []) (fun eng ->
            Engine.class_flows eng cls)
    | _ -> []
  in
  let* reply = exec_op t link ~now op in
  (match op with
  | Command.Add_class { flow = Some f; _ } ->
      Ds.Int_table.replace t.flow_links f link
  | Command.Delete_class _ ->
      List.iter (Ds.Int_table.remove t.flow_links) unmapped
  | _ -> ());
  Ok reply

(* Unscoped aggregate forms over several links. *)
let all_links_stats t ~now cls =
  let bodies =
    List.filter_map
      (fun ((name, _) as link) ->
        match exec_op t link ~now (Command.Stats cls) with
        | Ok s -> Some (Printf.sprintf "== link %S ==\n%s" name s)
        | Error _ -> None)
      t.links
  in
  match bodies with
  | [] -> (
      match cls with
      | Some c ->
          Engine.errf Engine.Unknown_class "unknown class %S on any link" c
      | None -> Ok "")
  | _ -> Ok (String.concat "" bodies)

let all_links_trace t ~now (tr : Command.trace_op) =
  match tr with
  | Command.Trace_dump ->
      Ok
        (String.concat ""
           (List.map
              (fun ((name, _) as link) ->
                match exec_op t link ~now (Command.Trace Command.Trace_dump) with
                | Ok s -> Printf.sprintf "== link %S ==\n%s" name s
                | Error _ -> "")
              t.links))
  | Command.Trace_on | Command.Trace_off ->
      List.iter
        (fun link -> ignore (exec_op t link ~now (Command.Trace tr)))
        t.links;
      Ok
        (Printf.sprintf "trace %s (%d links)"
           (match tr with Command.Trace_on -> "on" | _ -> "off")
           (link_count t))

let exec t ~now { Command.target; op } =
  match op with
  | Command.Link_add { link; rate; backend } ->
      add_link t ~name:link ~link_rate:rate ~backend
  | Command.Link_delete name -> delete_link t name
  | Command.Link_list -> link_list t
  | _ -> (
      match target with
      | Command.On_link name -> (
          match find_entry t name with
          | None -> Engine.errf Engine.Unknown_link "unknown link %S" name
          | Some link -> exec_on t ~now link op)
      | Command.Default_link -> (
          match t.links with
          | [] -> Engine.errf Engine.Unknown_link "router has no links"
          | [ link ] -> exec_on t ~now link op
          | _ -> (
              (* several links: aggregate what aggregates, route what
                 routes, reject what is ambiguous *)
              match op with
              | Command.Stats cls -> all_links_stats t ~now cls
              | Command.Trace tr -> all_links_trace t ~now tr
              | Command.Attach_filter { fflow; _ } -> (
                  match Ds.Int_table.find_opt t.flow_links fflow with
                  | Some link -> exec_on t ~now link op
                  | None ->
                      Engine.errf Engine.Unknown_flow
                        "filter flow %d is not mapped on any link" fflow)
              | Command.Detach_filter flow -> (
                  match Ds.Int_table.find_opt t.flow_links flow with
                  | Some link -> exec_on t ~now link op
                  | None -> (
                      match
                        List.find_opt
                          (fun (_, p) ->
                            t.ops.call p ~down:(fun _ -> false) (fun eng ->
                                Engine.has_filter eng flow))
                          t.links
                      with
                      | Some link -> exec_on t ~now link op
                      | None ->
                          Engine.errf Engine.Unknown_flow
                            "no filter attached to flow %d on any link" flow))
              | _ ->
                  Engine.errf Engine.Unknown_link
                    "router has %d links; scope the command with 'link NAME'"
                    (link_count t))))

let exec_script ?(lenient = false) t cmds =
  let rec go acc = function
    | [] -> List.rev acc
    | (at, cmd) :: rest -> (
        let r = exec t ~now:at cmd in
        let acc = (at, cmd, r) :: acc in
        match r with
        | Error _ when not lenient -> List.rev acc
        | _ -> go acc rest)
  in
  go [] cmds

(* --- configuration ------------------------------------------------------ *)

(* Build what a configuration describes on the router [t] (empty when
   called): each device statement, already in the command grammar,
   goes through [Command.parse] and [exec] like any socket or journal
   line, so a config meets the same admission control. The first
   refusal stops the build as ["line N: CODE: MESSAGE"]. Sources are
   checked against the flow directory the commands filled; the
   warnings name every mapped flow no source feeds. *)
let of_config t (cfg : Config.t) =
  let refuse line (e : Engine.error) =
    Error
      (Printf.sprintf "line %d: %s: %s" line
         (Engine.error_code_name e.Engine.code)
         e.Engine.message)
  in
  let rec run = function
    | [] -> Ok ()
    | (line, text) :: rest -> (
        match Command.parse text with
        | Error e -> refuse line (Engine.parse_error e)
        | Ok cmd -> (
            match exec t ~now:0. cmd with
            | Ok _ -> run rest
            | Error e -> refuse line e))
  in
  let* () = run cfg.Config.commands in
  let* () =
    match
      List.find_opt
        (fun (_, f) -> not (Ds.Int_table.mem t.flow_links f))
        cfg.Config.source_flows
    with
    | Some (line, f) ->
        refuse line
          {
            Engine.code = Engine.Unknown_flow;
            message = Printf.sprintf "source refers to unmapped flow %d" f;
          }
    | None -> Ok ()
  in
  let sourced = List.map snd cfg.Config.source_flows in
  let multi = link_count t > 1 in
  Ok
    (List.concat_map
       (fun (name, port) ->
         Ds.Int_table.fold
           (fun f (_, p) acc ->
             if p == port && not (List.mem f sourced) then f :: acc else acc)
           t.flow_links []
         |> List.sort compare
         |> List.map (fun f ->
                Printf.sprintf "%sflow %d has no traffic source"
                  (if multi then Printf.sprintf "link %S: " name else "")
                  f))
       t.links)

(* --- checkpoint & config fingerprint ---------------------------------- *)

(* The whole device as a replayable script: each link's [link add]
   followed by its engine ops scoped to that link, in link-creation
   order — exactly what a fresh router replays to reach this
   configuration. Times are all 0: a checkpoint is a state, not a
   history. *)
let checkpoint t =
  List.concat_map
    (fun (name, p) ->
      let scoped op = (0., { Command.target = Command.On_link name; op }) in
      ( 0.,
        {
          Command.target = Command.Default_link;
          op =
            (let rate, backend = spec t name in
             Command.Link_add { link = name; rate; backend });
        } )
      :: List.map scoped
           (* a downed link's configuration is unreadable: the
              checkpoint keeps the link itself and nothing below it *)
           (t.ops.call p ~down:(fun _ -> []) Engine.checkpoint_ops))
    t.links

(* One digest over every link's configuration digest, keyed by name and
   order-independent across link-creation history (sorted), so a
   recovered device and its replay oracle compare equal iff every
   link's control plane does. *)
let config_fingerprint t =
  List.map
    (fun (name, p) ->
      name ^ "="
      ^ t.ops.call p
          ~down:(fun e -> "down(" ^ Printexc.to_string e ^ ")")
          Engine.config_fingerprint
      ^ "\n")
    t.links
  |> List.sort compare |> String.concat ""
  |> fun s -> Digest.to_hex (Digest.string s)

(* --- auditor ---------------------------------------------------------- *)

let audit t =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (* per-engine invariants, attributed to their link; fetch each link's
     flow map once — ports may be a domain hop away *)
  let flow_maps =
    List.map
      (fun (name, p) -> (name, t.ops.call p ~down:(fun _ -> []) Engine.flows))
      t.links
  in
  let mapped = Hashtbl.create 64 in
  List.iter
    (fun (name, fl) -> List.iter (fun f -> Hashtbl.replace mapped (name, f) ()) fl)
    flow_maps;
  List.iter
    (fun (name, p) ->
      List.iter
        (fun e -> add "link %S: %s" name e)
        (t.ops.call p
           ~down:(fun e ->
             [
               Printf.sprintf "worker failed (%s); link marked down"
                 (Printexc.to_string e);
             ])
           Engine.audit))
    t.links;
  (* directory -> engine: every entry names a live link and a flow the
     engine actually maps *)
  Ds.Int_table.iter
    (fun flow (name, p) ->
      (match find_link t name with
      | Some p' when p' == p -> ()
      | _ -> add "flow %d maps to dead or renamed link %S" flow name);
      if not (Hashtbl.mem mapped (name, flow)) then
        add "flow %d in directory but not in link %S's flow map" flow name)
    t.flow_links;
  (* engine -> directory: every engine-mapped flow is in the directory,
     owned by that very link *)
  List.iter
    (fun (name, p) ->
      List.iter
        (fun flow ->
          match Ds.Int_table.find_opt t.flow_links flow with
          | Some (owner, p') when p' == p && owner = name -> ()
          | Some (owner, _) ->
              add "flow %d mapped on link %S but directory says %S" flow name
                owner
          | None ->
              add "flow %d mapped on link %S but missing from the directory"
                flow name)
        (match List.assoc_opt name flow_maps with Some fl -> fl | None -> []))
    t.links;
  List.rev !errs

(* --- exporters -------------------------------------------------------- *)

let stats_json t =
  Json_lite.Obj
    [
      ("schema", Json_lite.Str "hfsc-router-stats/1");
      ("links", Json_lite.Num (float_of_int (link_count t)));
      ( "link_stats",
        Json_lite.List
          (List.map
             (fun (name, p) ->
               Json_lite.Obj
                 [
                   ("name", Json_lite.Str name);
                   ( "stats",
                     t.ops.call p
                       ~down:(fun e ->
                         Json_lite.Obj
                           [ ("down", Json_lite.Str (Printexc.to_string e)) ])
                       Engine.stats_json );
                 ])
             t.links) );
    ]

let stats_text t =
  String.concat ""
    (List.map
       (fun (name, p) ->
         let body =
           match
             t.ops.call p ~down:(down_error name) (fun eng ->
                 Engine.stats_text eng ())
           with
           | Ok s -> s
           | Error e -> e.Engine.message
         in
         Printf.sprintf "== link %S (rate %.0f B/s) ==\n%s" name
           (fst (spec t name)) body)
       t.links)
