(* Shared random-hierarchy, traffic and op-stream generators for the
   H-FSC test suite. The hierarchy builder and the op-stream driver are
   functors over the scheduler module so the same generated
   configuration and operation sequence can be instantiated against
   both the optimized scheduler ([Hfsc]) and the linear-scan reference
   ([Hfsc_ref]) — the differential tests drive the two in lockstep.
   [dump] renders a failing (seed, spec, ops) triple as OCaml literals
   so any fuzz failure can be replayed as a deterministic test case. *)

module Sc = Curve.Service_curve

type leaf_spec = {
  rsc_kind : int; (* 0 none, 1 concave, 2 convex, 3 linear *)
  with_usc : bool;
  share : float;
  qlimit : int;
}

type tree_spec = Leaf of leaf_spec | Node of float * tree_spec list

let leaf_gen =
  QCheck2.Gen.(
    let* rsc_kind = int_range 0 3 in
    let* with_usc = frequency [ (5, return false); (1, return true) ] in
    let* share = float_range 0.05 1. in
    let* qlimit = int_range 5 200 in
    return (Leaf { rsc_kind; with_usc; share; qlimit }))

let tree_gen =
  QCheck2.Gen.(
    sized_size (int_range 2 8) @@ fix (fun self n ->
        if n <= 1 then leaf_gen
        else
          let* fanout = int_range 2 3 in
          let* share = float_range 0.1 1. in
          let* children = list_size (return fanout) (self (n / fanout)) in
          return (Node (share, children))))

(* per-leaf: (kind, load factor, pkt size) *)
let traffic_gen =
  QCheck2.Gen.(
    list_size (int_range 1 12)
      (triple (int_range 0 2) (float_range 0.1 2.) (int_range 40 1500)))

let rec leaves_of_spec = function
  | Leaf _ -> 1
  | Node (_, cs) -> List.fold_left (fun a c -> a + leaves_of_spec c) 0 cs

(* --- op streams ---------------------------------------------------- *)

(* One scheduler-level operation: traffic, polls (single and batched),
   and the live-reconfiguration commands the control plane issues.
   Leaf indices are taken mod the number of leaves by the driver. *)
type act =
  | Enq of int * int (* leaf index, packet size *)
  | Deq
  | Enq_burst of (int * int) list (* a receive-ring delivery *)
  | Deq_burst of int (* a transmit-ring fill of that depth *)
  | Class_limits of int * int * int (* leaf index, pkts, bytes *)
  | Agg_limit of int * int
  | Policy of bool (* true = drop-from-longest *)

type op = { dt : float; act : act }

let gen_ops ~rng ~nleaves ~nops =
  List.init nops (fun _ ->
      let dt = Random.State.float rng 0.002 in
      let act =
        match Random.State.int rng 100 with
        | n when n < 40 ->
            Enq (Random.State.int rng nleaves, 40 + Random.State.int rng 1460)
        | n when n < 70 -> Deq
        | n when n < 78 ->
            Enq_burst
              (List.init
                 (2 + Random.State.int rng 10)
                 (fun _ ->
                   ( Random.State.int rng nleaves,
                     40 + Random.State.int rng 1460 )))
        | n when n < 86 -> Deq_burst (2 + Random.State.int rng 30)
        | n when n < 93 ->
            Class_limits
              ( Random.State.int rng nleaves,
                1 + Random.State.int rng 50,
                64 + Random.State.int rng 100_000 )
        | n when n < 98 ->
            Agg_limit
              (1 + Random.State.int rng 300, 1_000 + Random.State.int rng 500_000)
        | _ -> Policy (Random.State.bool rng)
      in
      { dt; act })

(* --- replayable dumps ---------------------------------------------- *)

let rec pp_spec b = function
  | Leaf l ->
      Printf.bprintf b
        "Leaf {rsc_kind=%d; with_usc=%b; share=%h; qlimit=%d}" l.rsc_kind
        l.with_usc l.share l.qlimit
  | Node (share, cs) ->
      Printf.bprintf b "Node (%h, [" share;
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_string b "; ";
          pp_spec b c)
        cs;
      Buffer.add_string b "])"

let pp_act b = function
  | Enq (i, s) -> Printf.bprintf b "Enq (%d, %d)" i s
  | Deq -> Buffer.add_string b "Deq"
  | Enq_burst ps ->
      Buffer.add_string b "Enq_burst [";
      List.iteri
        (fun k (i, s) ->
          if k > 0 then Buffer.add_string b "; ";
          Printf.bprintf b "(%d, %d)" i s)
        ps;
      Buffer.add_string b "]"
  | Deq_burst n -> Printf.bprintf b "Deq_burst %d" n
  | Class_limits (i, p, by) -> Printf.bprintf b "Class_limits (%d, %d, %d)" i p by
  | Agg_limit (p, by) -> Printf.bprintf b "Agg_limit (%d, %d)" p by
  | Policy l -> Printf.bprintf b "Policy %b" l

(* The whole failing case as OCaml literals ([%h] floats, so the replay
   is bit-exact): paste the spec and ops into a deterministic test. *)
let dump ~seed ~spec ~ops =
  let b = Buffer.create 4096 in
  Printf.bprintf b "seed %d; replay with:\nlet spec = " seed;
  pp_spec b spec;
  Buffer.add_string b "\nlet ops = [\n";
  List.iter
    (fun { dt; act } ->
      Printf.bprintf b "  {dt=%h; act=" dt;
      pp_act b act;
      Buffer.add_string b "};\n")
    ops;
  Buffer.add_string b "]\n";
  Buffer.contents b

module Build (H : module type of Hfsc) = struct
  (* Build the generated tree; returns the leaves (flow, cls, has_usc). *)
  let build_tree link_rate spec =
    let t = H.create ~link_rate () in
    let flow = ref 0 in
    let leaves = ref [] in
    let rec go parent rate spec =
      match spec with
      | Leaf l ->
          incr flow;
          let my_rate = Float.max 1000. (rate *. l.share) in
          let rsc =
            match l.rsc_kind with
            | 1 ->
                Some
                  (Sc.make ~m1:(2. *. my_rate) ~d:0.01 ~m2:(my_rate /. 2.))
            | 2 -> Some (Sc.make ~m1:0. ~d:0.01 ~m2:(my_rate /. 2.))
            | 3 -> Some (Sc.linear (my_rate /. 2.))
            | _ -> None
          in
          let usc =
            if l.with_usc then Some (Sc.linear (Float.max 2000. my_rate))
            else None
          in
          let cls =
            H.add_class t ~parent
              ~name:(Printf.sprintf "leaf%d" !flow)
              ?rsc ~fsc:(Sc.linear my_rate) ?usc ~qlimit:l.qlimit ()
          in
          leaves := (!flow, cls, l.with_usc) :: !leaves
      | Node (share, children) ->
          let my_rate = Float.max 2000. (rate *. share) in
          let node =
            H.add_class t ~parent
              ~name:(Printf.sprintf "node%d" (Hashtbl.hash spec land 0xffff))
              ~fsc:(Sc.linear my_rate) ()
          in
          List.iter (go node my_rate) children
    in
    (match spec with
    | Leaf _ -> go (H.root t) link_rate spec
    | Node (_, children) -> List.iter (go (H.root t) link_rate) children);
    (t, List.rev !leaves)
end

(* Drive a scheduler through an op stream, rendering every decision
   (and the final per-class aggregates) into a trace string; two runs
   agree iff the strings are equal. With [expand_bursts:true] the burst
   ops are executed as the equivalent sequences of single calls — so
   comparing the two modes on the {e same} module asserts the
   batch-equals-singles bit-identity, and comparing across modules
   asserts the scheduler differential. Raises [Failure] when the
   periodic audit finds a violated invariant. *)
module Drive (H : module type of Hfsc) = struct
  module B = Build (H)

  let crit_int (c : H.criterion) =
    match c with H.Realtime -> 0 | H.Linkshare -> 1

  let run ?(audit_every = 64) ?(what = "sched") ~expand_bursts ~spec ~ops () =
    let t, leaves = B.build_tree 1e6 spec in
    let leaves = Array.of_list leaves in
    let nl = Array.length leaves in
    let seqs = Array.make nl 0 in
    let now = ref 0. in
    let nth = ref 0 in
    let buf = Buffer.create 4096 in
    let mkpkt i size =
      let flow, _, _ = leaves.(i mod nl) in
      let p = Pkt.Packet.make ~flow ~size ~seq:seqs.(i mod nl) ~arrival:!now in
      seqs.(i mod nl) <- seqs.(i mod nl) + 1;
      p
    in
    let deq_record p (c : H.cls) crit =
      Buffer.add_string buf
        (Printf.sprintf "D%d:%d:%s:%d;" p.Pkt.Packet.flow p.Pkt.Packet.seq
           (H.name c) (crit_int crit))
    in
    List.iter
      (fun { dt; act } ->
        incr nth;
        now := !now +. dt;
        (match act with
        | Enq (i, size) ->
            let flow, cls, _ = leaves.(i mod nl) in
            let p = mkpkt i size in
            Buffer.add_string buf
              (Printf.sprintf "E%d:%d:%b;" flow p.Pkt.Packet.seq
                 (H.enqueue t ~now:!now cls p))
        | Deq -> (
            match H.dequeue t ~now:!now with
            | None -> Buffer.add_string buf "D-;"
            | Some (p, c, crit) -> deq_record p c crit)
        | Enq_burst ps ->
            (* per-packet accept/drop outcomes are not part of the
               batched return value, so both modes record only the
               accepted count — the individual outcomes stay pinned
               through their effect on every later decision and the
               final aggregates *)
            let accepted =
              if expand_bursts then
                List.fold_left
                  (fun acc (i, size) ->
                    let _, cls, _ = leaves.(i mod nl) in
                    let p = mkpkt i size in
                    if H.enqueue t ~now:!now cls p then acc + 1 else acc)
                  0 ps
              else begin
                let cls =
                  Array.of_list
                    (List.map
                       (fun (i, _) ->
                         let _, c, _ = leaves.(i mod nl) in
                         c)
                       ps)
                in
                let pkts =
                  Array.of_list (List.map (fun (i, s) -> mkpkt i s) ps)
                in
                H.enqueue_batch t ~now:!now cls pkts
              end
            in
            Buffer.add_string buf (Printf.sprintf "B%d;" accepted)
        | Deq_burst n ->
            let count =
              if expand_bursts then begin
                (* a [None] has no state effect and every further single
                   at the same instant also returns [None], so stopping
                   at the first is state-identical to n full singles *)
                let rec go i =
                  if i >= n then i
                  else
                    match H.dequeue t ~now:!now with
                    | None -> i
                    | Some (p, c, crit) ->
                        deq_record p c crit;
                        go (i + 1)
                in
                go 0
              end
              else begin
                let b = H.batch ~capacity:n () in
                let c = H.dequeue_batch t ~now:!now b in
                for k = 0 to c - 1 do
                  deq_record (H.batch_pkt b k) (H.batch_cls b k)
                    (H.batch_crit b k)
                done;
                c
              end
            in
            Buffer.add_string buf (Printf.sprintf "DB%d;" count)
        | Class_limits (i, pkts, bytes) ->
            let _, cls, _ = leaves.(i mod nl) in
            H.set_class_limits t cls ~pkts ~bytes ()
        | Agg_limit (pkts, bytes) -> H.set_aggregate_limit t ~pkts ~bytes ()
        | Policy longest ->
            H.set_drop_policy t
              (if longest then H.Drop_longest else H.Tail_drop));
        if audit_every > 0 && !nth mod audit_every = 0 then
          match H.audit t with
          | [] -> ()
          | errs ->
              failwith
                (Printf.sprintf "%s audit failed at op %d:\n  %s" what !nth
                   (String.concat "\n  " errs)))
      ops;
    (match H.audit t with
    | [] -> ()
    | errs ->
        failwith
          (Printf.sprintf "%s final audit:\n  %s" what
             (String.concat "\n  " errs)));
    List.iter
      (fun c ->
        Buffer.add_string buf
          (Printf.sprintf "C%s:%h:%h:%h:%d:%d;" (H.name c) (H.total_bytes c)
             (H.realtime_bytes c) (H.virtual_time c) (H.queue_length c)
             (H.queue_bytes c)))
      (H.classes t);
    Buffer.contents buf
end

(* --- device-level op streams and fingerprints ------------------------ *)
(* Shared by the engine/router fuzz (test_fuzz) and the sequential-vs-
   multicore differential (test_domains): one generator, so the two
   harnesses throw identical traffic/control interleavings at a device. *)

type eng_act =
  | Cmd of string
  | Pkt of int * int (* flow, size *)
  | Drain of int

type eng_op = { edt : float; eact : eng_act }

(* Op streams are materialized before the run so any failure can print
   them; [Drain]'s argument is resolved mod the live target count at
   replay time (link count, burst size). *)
let gen_eng_ops ~rng ~pool ~flows ~nops () =
  List.init nops (fun _ ->
      let edt = Random.State.float rng 0.002 in
      let eact =
        match Random.State.int rng 10 with
        | 0 | 1 -> Cmd pool.(Random.State.int rng (Array.length pool))
        | 2 | 3 | 4 | 5 | 6 ->
            let size = 40 + Random.State.int rng 1460 in
            let flow = flows.(Random.State.int rng (Array.length flows)) in
            Pkt (flow, size)
        | _ -> Drain (Random.State.int rng 1000)
      in
      { edt; eact })

let eng_dump ~what ~seed ops =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%s seed %d op stream (dt act):\n" what seed;
  List.iter
    (fun { edt; eact } ->
      match eact with
      | Cmd line -> Printf.bprintf b "  %h cmd %s\n" edt line
      | Pkt (flow, size) ->
          Printf.bprintf b "  %h enq flow=%d size=%d\n" edt flow size
      | Drain r -> Printf.bprintf b "  %h deq %d\n" edt r)
    ops;
  Buffer.contents b

(* Full observable state of one engine: hierarchy, per-class scheduler
   internals, limits, policy, backlog, filter count. Two engines fed
   the same op stream must fingerprint identically. *)
let engine_fingerprint eng =
  let sched = Runtime.Engine.scheduler eng in
  let b = Buffer.create 512 in
  Buffer.add_string b (Format.asprintf "%a" Hfsc.pp_hierarchy sched);
  List.iter
    (fun c ->
      Buffer.add_string b (Hfsc.debug_state c);
      if Hfsc.is_leaf c then
        Buffer.add_string b
          (Printf.sprintf "|%d/%d" (Hfsc.queue_limit_pkts c)
             (Hfsc.queue_limit_bytes c)))
    (Hfsc.classes sched);
  Buffer.add_string b
    (Printf.sprintf "|%d/%d/%b/%d/%d/%d"
       (Hfsc.aggregate_limit_pkts sched)
       (Hfsc.aggregate_limit_bytes sched)
       (Hfsc.drop_policy sched = Hfsc.Drop_longest)
       (Hfsc.backlog_pkts sched) (Hfsc.backlog_bytes sched)
       (Runtime.Engine.filter_count eng));
  Buffer.contents b

(* Device-wide fingerprint over named engines plus a flow directory
   probe, parameterized so it applies to any router flavour. *)
let device_fingerprint ~links ~link_of_flow =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, eng) ->
      Buffer.add_string b name;
      Buffer.add_char b '=';
      Buffer.add_string b (engine_fingerprint eng);
      Buffer.add_char b '\n')
    links;
  for flow = 0 to 30 do
    match link_of_flow flow with
    | Some l -> Buffer.add_string b (Printf.sprintf "f%d->%s;" flow l)
    | None -> ()
  done;
  Buffer.contents b
