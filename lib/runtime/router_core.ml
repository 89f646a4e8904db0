(* The device-level control plane, written once over an abstract link
   "port". A port is one link's engine endpoint: the sequential
   {!Router} instantiates it with a bare [Engine.t] (direct calls); the
   multicore {!Mc_router} instantiates it with a ring handle whose
   operations post into the owning domain and block on a completion
   handshake. Everything observable — reply strings, typed errors,
   routing rules, directory bookkeeping — lives here, so the two
   routers cannot drift apart: the N-domain router is bit-identical to
   the sequential one on the control plane {e by construction}.

   Only the control plane lives here, and the building of links: every
   link's engine is made here (empty for [link add], from its parsed
   scheduler for a config) and handed to the router's [port] wrapper.
   The per-packet data path is port-specific (a directory hit must stay
   allocation-free in the sequential router, and must become a ring
   message in the multicore one), so each router keeps its own. *)

(* What [link list] needs to print about one link. *)
type info = {
  i_rate : float;
  i_backend : Config.backend;
  i_classes : int;
  i_flows : int;
  i_backlog_pkts : int;
  i_backlog_bytes : int;
}

let engine_info eng =
  {
    i_rate = Engine.link_rate eng;
    i_backend =
      (match Engine.backend_kind eng with
      | Backend.Hfsc_kind -> Config.Hfsc_backend
      | Backend.Rr_kind -> Config.Rr_backend);
    i_classes = List.length (Engine.class_ids eng);
    i_flows = Engine.flow_count eng;
    i_backlog_pkts = Engine.backlog_pkts eng;
    i_backlog_bytes = Engine.backlog_bytes eng;
  }

(* The port operations. All of them are control-plane calls: they may
   block (ring round trip) and may allocate. *)
type 'p ops = {
  op_exec : 'p -> now:float -> Command.op -> (string, Engine.error) result;
  op_flows : 'p -> int list;
      (* the link's whole flow map (Engine.flows): for the initial
         directory fill and the auditor only *)
  op_class_flows : 'p -> string -> int list;
      (* the flows one class owns (Engine.class_flows): asked before a
         [delete class], the one command that unmaps flows *)
  op_rules : 'p -> Classify.Rules.t;
  op_has_filter : 'p -> int -> bool;
  op_info : 'p -> info;
  op_audit : 'p -> string list;
  op_stats_json : 'p -> Json_lite.t;
  op_stats_text : 'p -> (string, Engine.error) result;
  op_checkpoint : 'p -> Command.op list;
      (* the link's control plane as a replayable op list
         (Engine.checkpoint_ops); a downed port reports [] *)
  op_config_fp : 'p -> string;
      (* the link's configuration digest (Engine.config_fingerprint) *)
  op_retire : 'p -> unit;
      (* the link was removed from the device: release whatever the
         port holds (no-op for a direct engine; for a ring port, drain
         and detach it from its worker domain) *)
}

type 'p t = {
  mutable links : (string * 'p) list; (* creation = shard order *)
  (* device-wide flow directory; the port rides along so the per-packet
     path of the instantiating router is one hash lookup. The engines
     own the flow maps; this is a cache of their union, updated in
     place by each command that maps or unmaps flows (see [exec_on]) —
     never rebuilt by scanning, so a class op costs O(its flows), not
     O(the link's flows). *)
  flow_links : (int, string * 'p) Hashtbl.t;
  mutable shard : string Classify.Shard.t;
  ops : 'p ops;
  new_port : name:string -> link_rate:float -> Config.backend -> 'p;
      (* what [link add] attaches: an empty engine in the router's port *)
}

let errf code fmt =
  Printf.ksprintf (fun message -> Error { Engine.code; message }) fmt

let ( let* ) = Result.bind

(* [port ~name eng] wraps a freshly built engine as the router's port:
   the engine itself for the sequential router, a ring handle on a
   worker domain for the multicore one. The engine knobs apply to every
   link the router builds, including those added later. *)
let create ?trace_capacity ?tracing ?audit_every ~ops ~port () =
  {
    links = [];
    flow_links = Hashtbl.create 16;
    shard = Classify.Shard.create [];
    ops;
    new_port =
      (fun ~name ~link_rate backend ->
        port ~name
          (Engine.create_link ?trace_capacity ?tracing ?audit_every ~link_rate
             backend));
  }

let links t = t.links
let find_entry t name = List.find_opt (fun (n, _) -> n = name) t.links
let find_link t name = Option.map snd (find_entry t name)
let link_count t = List.length t.links
let link_of_flow t flow = Option.map fst (Hashtbl.find_opt t.flow_links flow)

let rebuild_shard t =
  t.shard <-
    Classify.Shard.create
      (List.map (fun (name, p) -> (name, t.ops.op_rules p)) t.links)

(* Append a link that arrives with flows already mapped (a config-built
   engine) and fill the directory from its flow map: O(the link's
   flows); commands keep the directory current in place afterwards. The
   caller rebuilds the shard once its links are all in. *)
let adopt t ((_, port) as link) =
  t.links <- t.links @ [ link ];
  List.iter (fun f -> Hashtbl.replace t.flow_links f link) (t.ops.op_flows port)

(* One link per [link] statement of the configuration, in file order. *)
let of_config ?trace_capacity ?tracing ?audit_every ~ops ~port
    (cfg : Config.t) =
  let t = create ?trace_capacity ?tracing ?audit_every ~ops ~port () in
  List.iter
    (fun (l : Config.link) ->
      let name = l.Config.lname in
      adopt t
        ( name,
          port ~name
            (Engine.of_built ?trace_capacity ?tracing ?audit_every
               ~link_rate:l.Config.lrate l.Config.lbuilt) ))
    cfg.Config.links;
  rebuild_shard t;
  t

let add_link t ~name ~link_rate ~backend =
  let* () =
    match find_link t name with
    | Some _ -> errf Engine.Duplicate_link "link %S already exists" name
    | None -> Ok ()
  in
  let* () =
    if link_rate <= 0. then
      errf Engine.Bad_value "link rate must be positive, got %g" link_rate
    else Ok ()
  in
  let port = t.new_port ~name ~link_rate backend in
  t.links <- t.links @ [ (name, port) ];
  rebuild_shard t;
  Ok
    (Printf.sprintf "added link %S (rate %.0f B/s%s, %d link%s)" name link_rate
       (match backend with
       | Config.Hfsc_backend -> ""
       | Config.Rr_backend -> " backend rr")
       (link_count t)
       (if link_count t > 1 then "s" else ""))

let delete_link t name =
  match find_link t name with
  | None -> errf Engine.Unknown_link "unknown link %S" name
  | Some port ->
      let orphans =
        Hashtbl.fold
          (fun f (_, p) acc -> if p == port then f :: acc else acc)
          t.flow_links []
        |> List.sort compare
      in
      List.iter (Hashtbl.remove t.flow_links) orphans;
      t.links <- List.filter (fun (n, _) -> n <> name) t.links;
      rebuild_shard t;
      t.ops.op_retire port;
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
                let i = t.ops.op_info p in
                Printf.sprintf
                  "%-12s rate %.0f B/s%s  classes %d  flows %d  backlog %d/%d"
                  name i.i_rate
                  (match i.i_backend with
                  | Config.Hfsc_backend -> ""
                  | Config.Rr_backend -> " backend rr")
                  i.i_classes i.i_flows i.i_backlog_pkts i.i_backlog_bytes)
              ls))

(* The device-wide uniqueness and ownership checks a bare engine cannot
   make, applied before the op reaches the owning engine. *)
let precheck t name port (op : Command.op) =
  match op with
  | Command.Add_class { flow = Some f; _ } -> (
      match Hashtbl.find_opt t.flow_links f with
      | Some (owner, p) when p != port ->
          errf Engine.Duplicate_flow "flow %d is already mapped on link %S" f
            owner
      | _ -> Ok ())
  | Command.Attach_filter { fflow; _ } -> (
      match Hashtbl.find_opt t.flow_links fflow with
      | Some (owner, p) when p != port ->
          errf Engine.Cross_link_filter
            "flow %d belongs to link %S, not %S: a filter must live on the \
             link that owns its flow"
            fflow owner name
      | _ -> Ok ())
  | _ -> Ok ()

(* The directory follows the engine's flow map op by op: a successful
   [add class ... flow F] maps exactly F, a successful [delete class]
   unmaps exactly the flows the class owned (asked of the engine before
   the delete, while the class still exists), and no other command
   touches flows. Filter changes rebuild the shard. [link] is the
   link's own [(name, port)] entry in [links]; every directory entry of
   the link shares it, so a lookup touches one hot pair, not a pair per
   flow. *)
let exec_on t ~now ((name, port) as link) op =
  let* () = precheck t name port op in
  let unmapped =
    match op with
    | Command.Delete_class cls -> t.ops.op_class_flows port cls
    | _ -> []
  in
  let* reply = t.ops.op_exec port ~now op in
  (match op with
  | Command.Add_class { flow = Some f; _ } ->
      Hashtbl.replace t.flow_links f link
  | Command.Delete_class _ -> List.iter (Hashtbl.remove t.flow_links) unmapped
  | Command.Attach_filter _ | Command.Detach_filter _ -> rebuild_shard t
  | _ -> ());
  Ok reply

(* Unscoped aggregate forms over several links. *)
let all_links_stats t ~now cls =
  let bodies =
    List.filter_map
      (fun (name, p) ->
        match t.ops.op_exec p ~now (Command.Stats cls) with
        | Ok s -> Some (Printf.sprintf "== link %S ==\n%s" name s)
        | Error _ -> None)
      t.links
  in
  match bodies with
  | [] -> (
      match cls with
      | Some c -> errf Engine.Unknown_class "unknown class %S on any link" c
      | None -> Ok "")
  | _ -> Ok (String.concat "" bodies)

let all_links_trace t ~now (tr : Command.trace_op) =
  match tr with
  | Command.Trace_dump ->
      Ok
        (String.concat ""
           (List.map
              (fun (name, p) ->
                match
                  t.ops.op_exec p ~now (Command.Trace Command.Trace_dump)
                with
                | Ok s -> Printf.sprintf "== link %S ==\n%s" name s
                | Error _ -> "")
              t.links))
  | Command.Trace_on | Command.Trace_off ->
      List.iter
        (fun (_, p) -> ignore (t.ops.op_exec p ~now (Command.Trace tr)))
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
          | None -> errf Engine.Unknown_link "unknown link %S" name
          | Some link -> exec_on t ~now link op)
      | Command.Default_link -> (
          match t.links with
          | [] -> errf Engine.Unknown_link "router has no links"
          | [ link ] -> exec_on t ~now link op
          | _ -> (
              (* several links: aggregate what aggregates, route what
                 routes, reject what is ambiguous *)
              match op with
              | Command.Stats cls -> all_links_stats t ~now cls
              | Command.Trace tr -> all_links_trace t ~now tr
              | Command.Attach_filter { fflow; _ } -> (
                  match Hashtbl.find_opt t.flow_links fflow with
                  | Some link -> exec_on t ~now link op
                  | None ->
                      errf Engine.Unknown_flow
                        "filter flow %d is not mapped on any link" fflow)
              | Command.Detach_filter flow -> (
                  match Hashtbl.find_opt t.flow_links flow with
                  | Some link -> exec_on t ~now link op
                  | None -> (
                      match
                        List.find_opt
                          (fun (_, p) -> t.ops.op_has_filter p flow)
                          t.links
                      with
                      | Some link -> exec_on t ~now link op
                      | None ->
                          errf Engine.Unknown_flow
                            "no filter attached to flow %d on any link" flow))
              | _ ->
                  errf Engine.Unknown_link
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
            (let i = t.ops.op_info p in
             Command.Link_add
               { link = name; rate = i.i_rate; backend = i.i_backend });
        } )
      :: List.map scoped (t.ops.op_checkpoint p))
    t.links

(* One digest over every link's configuration digest, keyed by name and
   order-independent across link-creation history (sorted), so a
   recovered device and its replay oracle compare equal iff every
   link's control plane does. *)
let config_fingerprint t =
  List.map (fun (name, p) -> name ^ "=" ^ t.ops.op_config_fp p ^ "\n") t.links
  |> List.sort compare |> String.concat ""
  |> fun s -> Digest.to_hex (Digest.string s)

(* --- auditor ---------------------------------------------------------- *)

let audit t =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (* per-engine invariants, attributed to their link; fetch each link's
     flow map once — ports may be a domain hop away *)
  let flow_maps =
    List.map (fun (name, p) -> (name, t.ops.op_flows p)) t.links
  in
  let mapped = Hashtbl.create 64 in
  List.iter
    (fun (name, fl) -> List.iter (fun f -> Hashtbl.replace mapped (name, f) ()) fl)
    flow_maps;
  List.iter
    (fun (name, p) ->
      List.iter (fun e -> add "link %S: %s" name e) (t.ops.op_audit p))
    t.links;
  (* directory -> engine: every entry names a live link and a flow the
     engine actually maps *)
  Hashtbl.iter
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
          match Hashtbl.find_opt t.flow_links flow with
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
                   ("stats", t.ops.op_stats_json p);
                 ])
             t.links) );
    ]

let stats_text t =
  String.concat ""
    (List.map
       (fun (name, p) ->
         let body =
           match t.ops.op_stats_text p with
           | Ok s -> s
           | Error e -> e.Engine.message
         in
         Printf.sprintf "== link %S (rate %.0f B/s) ==\n%s" name
           (t.ops.op_info p).i_rate body)
       t.links)
