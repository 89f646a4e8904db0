(* The sequential router: {!Router_core} instantiated with the port
   being a bare [Engine.t] — every control operation is a direct call
   on the owning engine, every data-path operation a direct call after
   one directory lookup. The multicore router ({!Mc_router}) reuses the
   same core with worker-backed ports; this file only supplies the direct
   port and the allocation-free data path. *)

type t = Engine.t Router_core.t

let seq_ops : Engine.t Router_core.ops =
  {
    Router_core.call = (fun eng ~down:_ f -> f eng);
    adapter = (fun eng _ -> Engine.adapter eng);
  }

let create ?trace_capacity ?audit_every () =
  Router_core.create ?trace_capacity ?audit_every ~ops:seq_ops
    ~port:Fun.id ()

let of_engines ?trace_capacity ?audit_every links =
  let t = create ?trace_capacity ?audit_every () in
  List.iter
    (fun (name, eng) ->
      if Router_core.find_link t name <> None then
        invalid_arg ("Router.of_engines: duplicate link " ^ name);
      if List.exists (fun f -> Router_core.link_of_flow t f <> None)
           (Engine.flows eng)
      then invalid_arg "Router.of_engines: a flow is mapped on two links";
      Router_core.adopt t (name, eng))
    links;
  t

let of_config ?trace_capacity ?audit_every cfg =
  let t = create ?trace_capacity ?audit_every () in
  Result.map (fun warnings -> (t, warnings)) (Router_core.of_config t cfg)

let add_link ?(backend = Backend.Hfsc_kind) t ~name ~link_rate =
  Router_core.add_link t ~name ~link_rate ~backend
let links = Router_core.links
let find_link = Router_core.find_link
let link_count = Router_core.link_count
let link_of_flow = Router_core.link_of_flow

let flow_class t flow =
  match Ds.Int_table.find_opt t.Router_core.flow_links flow with
  | None -> None
  | Some (name, eng) ->
      Option.map (fun cls -> (name, cls)) (Engine.flow_class eng flow)

(* --- the data path -------------------------------------------------- *)

(* The first link, in creation order, whose filter table matches; its
   flow must be mapped on that same link. *)
let classify t h =
  let rec go = function
    | [] -> None
    | (name, eng) :: rest -> (
        match Classify.Rules.classify (Engine.rules eng) h with
        | None -> go rest
        | Some flow -> (
            match Ds.Int_table.find_opt t.Router_core.flow_links flow with
            | Some (owner, _) when owner = name ->
                Option.map (fun cls -> (name, cls)) (Engine.flow_class eng flow)
            | _ -> None))
  in
  go t.Router_core.links

(* [find], not [find_opt]: the hit path of the per-packet routing
   lookup must not allocate an option *)
let enqueue_flow t ~now pkt =
  match Ds.Int_table.find t.Router_core.flow_links pkt.Pkt.Packet.flow with
  | _, eng -> Engine.enqueue_flow eng ~now pkt
  | exception Not_found -> false

(* --- command routing, auditor, exporters: all shared ----------------- *)

let exec = Router_core.exec
let exec_script = Router_core.exec_script
let audit = Router_core.audit
let stats_json = Router_core.stats_json
let stats_text = Router_core.stats_text
let checkpoint = Router_core.checkpoint
let config_fingerprint = Router_core.config_fingerprint
