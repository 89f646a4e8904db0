type curve_updates = {
  rsc : Curve.Service_curve.t option;
  fsc : Curve.Service_curve.t option;
  usc : Curve.Service_curve.t option;
}

type filter_spec = {
  fflow : int;
  fsrc : string option;
  fdst : string option;
  fproto : Pkt.Header.proto option;
  fsport : (int * int) option;
  fdport : (int * int) option;
}

type trace_op = Trace_on | Trace_off | Trace_dump
type limit_val = Unlimited | At of int
type limit_policy = Policy_tail | Policy_longest
type target = Default_link | On_link of string

type op =
  | Add_class of {
      name : string;
      parent : string;
      flow : int option;
      curves : curve_updates;
      quantum : int option;
      qlimit : int option;
      qbytes : int option;
    }
  | Modify_class of {
      name : string;
      curves : curve_updates;
      quantum : int option;
      qlimit : int option;
      qbytes : int option;
    }
  | Delete_class of string
  | Attach_filter of filter_spec
  | Detach_filter of int
  | Stats of string option
  | Trace of trace_op
  | Set_limit of {
      lpkts : limit_val option;
      lbytes : limit_val option;
      lpolicy : limit_policy option;
    }
  | Link_add of { link : string; rate : float; backend : Backend.kind }
  | Link_delete of string
  | Link_list

type t = { target : target; op : op }
type error = { line : int; reason : string }

exception Err of string

let fail fmt = Printf.ksprintf (fun s -> raise (Err s)) fmt

let int_tok s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "expected an integer, got %S" s

let rate_tok s =
  match Config.parse_rate s with Ok v -> v | Error e -> fail "%s" e

let curve toks =
  match Config.parse_curve_tokens toks with
  | Ok (c, rest) -> (c, rest)
  | Error e -> fail "%s" e

let no_curves = { rsc = None; fsc = None; usc = None }

(* Attribute loop shared by add/modify: [allow_flow] admits the flow
   mapping, which only makes sense at class creation; queue limits
   (qlimit/qbytes) are live-settable and allowed in both. [quantum] is
   the rr-backend share (the engine rejects it on an hfsc link). *)
let rec class_attrs ~allow_flow (curves, flow, quantum, qlimit, qbytes) =
  function
  | [] -> (curves, flow, quantum, qlimit, qbytes)
  | "rsc" :: rest ->
      let c, rest = curve rest in
      class_attrs ~allow_flow
        ({ curves with rsc = Some c }, flow, quantum, qlimit, qbytes)
        rest
  | "fsc" :: rest ->
      let c, rest = curve rest in
      class_attrs ~allow_flow
        ({ curves with fsc = Some c }, flow, quantum, qlimit, qbytes)
        rest
  | "ulimit" :: rest ->
      let c, rest = curve rest in
      class_attrs ~allow_flow
        ({ curves with usc = Some c }, flow, quantum, qlimit, qbytes)
        rest
  | "flow" :: n :: rest when allow_flow ->
      class_attrs ~allow_flow
        (curves, Some (int_tok n), quantum, qlimit, qbytes)
        rest
  | "quantum" :: n :: rest ->
      class_attrs ~allow_flow
        (curves, flow, Some (int_tok n), qlimit, qbytes)
        rest
  | "qlimit" :: n :: rest ->
      class_attrs ~allow_flow
        (curves, flow, quantum, Some (int_tok n), qbytes)
        rest
  | "qbytes" :: n :: rest ->
      class_attrs ~allow_flow
        (curves, flow, quantum, qlimit, Some (int_tok n))
        rest
  | kw :: _ -> fail "unknown class attribute %S" kw

let limit_tok = function
  | "none" -> Unlimited
  | s ->
      let n = int_tok s in
      if n <= 0 then fail "limit must be positive, got %d" n;
      At n

let rec limit_attrs (p, b, pol) = function
  | [] -> (p, b, pol)
  | "pkts" :: v :: rest -> limit_attrs (Some (limit_tok v), b, pol) rest
  | "bytes" :: v :: rest -> limit_attrs (p, Some (limit_tok v), pol) rest
  | "policy" :: "tail" :: rest -> limit_attrs (p, b, Some Policy_tail) rest
  | "policy" :: "longest" :: rest -> limit_attrs (p, b, Some Policy_longest) rest
  | "policy" :: kw :: _ -> fail "unknown drop policy %S (tail|longest)" kw
  | kw :: _ -> fail "unknown limit attribute %S" kw

let proto_tok = function
  | "tcp" -> Pkt.Header.Tcp
  | "udp" -> Pkt.Header.Udp
  | "icmp" -> Pkt.Header.Icmp
  | s -> Pkt.Header.Other (int_tok s)

let rec filter_attrs f = function
  | [] -> f
  | "src" :: p :: rest -> filter_attrs { f with fsrc = Some p } rest
  | "dst" :: p :: rest -> filter_attrs { f with fdst = Some p } rest
  | "proto" :: p :: rest -> filter_attrs { f with fproto = Some (proto_tok p) } rest
  | "sport" :: lo :: hi :: rest ->
      filter_attrs { f with fsport = Some (int_tok lo, int_tok hi) } rest
  | "dport" :: lo :: hi :: rest ->
      filter_attrs { f with fdport = Some (int_tok lo, int_tok hi) } rest
  | kw :: _ -> fail "unknown filter attribute %S" kw

(* An operation with no [link ...] addressing in front of it. *)
let parse_op_tokens = function
  | "add" :: "class" :: name :: "parent" :: parent :: rest ->
      let curves, flow, quantum, qlimit, qbytes =
        class_attrs ~allow_flow:true (no_curves, None, None, None, None) rest
      in
      Add_class { name; parent; flow; curves; quantum; qlimit; qbytes }
  | "add" :: "class" :: _ -> fail "add class: expected NAME parent PARENT"
  | "modify" :: "class" :: name :: rest ->
      let curves, _, quantum, qlimit, qbytes =
        class_attrs ~allow_flow:false (no_curves, None, None, None, None) rest
      in
      if curves = no_curves && quantum = None && qlimit = None && qbytes = None
      then fail "modify class %S: nothing to change" name;
      Modify_class { name; curves; quantum; qlimit; qbytes }
  | [ "delete"; "class"; name ] -> Delete_class name
  | "delete" :: "class" :: _ -> fail "delete class: expected exactly one NAME"
  | "attach" :: "filter" :: "flow" :: n :: rest ->
      Attach_filter
        (filter_attrs
           {
             fflow = int_tok n;
             fsrc = None;
             fdst = None;
             fproto = None;
             fsport = None;
             fdport = None;
           }
           rest)
  | "attach" :: "filter" :: _ -> fail "attach filter: expected flow N first"
  | [ "detach"; "filter"; "flow"; n ] -> Detach_filter (int_tok n)
  | "detach" :: _ -> fail "detach: expected 'detach filter flow N'"
  | [ "stats" ] -> Stats None
  | [ "stats"; name ] -> Stats (Some name)
  | "stats" :: _ -> fail "stats takes at most one class name"
  | [ "trace"; "on" ] -> Trace Trace_on
  | [ "trace"; "off" ] -> Trace Trace_off
  | [ "trace"; "dump" ] -> Trace Trace_dump
  | "trace" :: _ -> fail "trace takes one of: on, off, dump"
  | "limit" :: rest ->
      let lpkts, lbytes, lpolicy = limit_attrs (None, None, None) rest in
      if lpkts = None && lbytes = None && lpolicy = None then
        fail "limit: expected at least one of pkts/bytes/policy";
      Set_limit { lpkts; lbytes; lpolicy }
  | "link" :: _ -> fail "a 'link' scope cannot nest"
  | kw :: _ -> fail "unknown command %S" kw
  | [] -> fail "empty command"

(* Top level: the router verbs ([link add/delete/list]) first — those
   words are reserved and cannot name a link — then the [link NAME]
   scope, then the classic unscoped grammar. *)
let parse_tokens = function
  | "link" :: "add" :: rest -> (
      match rest with
      | [ name; "rate"; r ] ->
          {
            target = Default_link;
            op =
              Link_add
                { link = name; rate = rate_tok r; backend = Backend.Hfsc_kind };
          }
      | [ name; "rate"; r; "backend"; b ] ->
          let backend =
            match b with
            | "hfsc" -> Backend.Hfsc_kind
            | "rr" -> Backend.Rr_kind
            | other -> fail "unknown backend %S (hfsc|rr)" other
          in
          {
            target = Default_link;
            op = Link_add { link = name; rate = rate_tok r; backend };
          }
      | _ -> fail "link add: expected NAME rate RATE [backend hfsc|rr]")
  | "link" :: "delete" :: rest -> (
      match rest with
      | [ name ] -> { target = Default_link; op = Link_delete name }
      | _ -> fail "link delete: expected exactly one NAME")
  | "link" :: "list" :: rest -> (
      match rest with
      | [] -> { target = Default_link; op = Link_list }
      | _ -> fail "link list takes no arguments")
  | "link" :: name :: (_ :: _ as rest) ->
      { target = On_link name; op = parse_op_tokens rest }
  | [ "link" ] | [ "link"; _ ] ->
      fail
        "link: expected 'link NAME COMMAND', 'link add NAME rate RATE', \
         'link delete NAME' or 'link list'"
  | toks -> { target = Default_link; op = parse_op_tokens toks }

let is_blank c = c = ' ' || c = '\t'

(* One scan, right to left so the tokens cons up in order; a '#' starts
   a comment that runs to the end of the line. *)
let tokenize line =
  let stop =
    match String.index line '#' with
    | i -> i
    | exception Not_found -> String.length line
  in
  (* [skip i]: [line.[0 .. i-1]] is unscanned; [word j e]: [line.[j .. e-1]]
     is the non-blank tail of a token that may reach further left *)
  let rec skip i acc =
    if i = 0 then acc
    else if is_blank (String.unsafe_get line (i - 1)) then skip (i - 1) acc
    else word (i - 1) i acc
  and word j e acc =
    if j > 0 && not (is_blank (String.unsafe_get line (j - 1))) then
      word (j - 1) e acc
    else skip j (String.sub line j (e - j) :: acc)
  in
  skip stop []

let parse s =
  match tokenize s with
  | [] -> Error "empty command"
  | toks -> ( try Ok (parse_tokens toks) with Err e -> Error e)

let time_tok s =
  match Config.parse_time s with
  | Ok v -> v
  | Error _ -> (
      (* also accept bare seconds, the convenient form in scripts *)
      match float_of_string_opt s with
      | Some v when Float.is_finite v && v >= 0. -> v
      | _ -> fail "bad time %S (want e.g. 500ms, 2s or bare seconds)" s)

let parse_script text =
  let parse_line line =
    match tokenize line with
    | [] -> None
    | toks -> (
        let at, toks =
          match toks with
          | "at" :: ts :: rest -> (time_tok ts, rest)
          | toks -> (0., toks)
        in
        match toks with
        | [] -> fail "nothing after 'at %g'" at
        | toks -> Some (at, parse_tokens toks))
  in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line line with
        | None -> go (n + 1) acc rest
        | Some cmd -> go (n + 1) (cmd :: acc) rest
        | exception Err reason -> Error { line = n; reason })
  in
  go 1 [] (String.split_on_char '\n' text)

let parse_script_file path =
  match
    try
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
    with Sys_error e -> Error { line = 0; reason = e }
  with
  | Ok text -> parse_script text
  | Error e -> Error e

(* [string_of_int]'s text, written digit by digit with no intermediate
   string. The digits come from -|n|, which exists for every int
   (|min_int| does not); [m mod 10] is then in -9..0. *)
let rec add_digits b m =
  if m <= -10 then add_digits b (m / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b n
  end
  else add_digits b (-n)

(* Commands are written in the command grammar itself (so an echoed
   command can be pasted back at the control plane), with enough digits
   that the floats survive the round trip: %.12g when that reads back
   as the same float, else %.17g. An integer below 1e12 (most rates in
   Bps, a checkpoint's time 0) is its decimal digits under %.12g, so it
   skips the printf and the read-back; -0. keeps its sign via %.12g. *)
let add_float b v =
  if
    Float.is_integer v && Float.abs v < 1e12
    && not (Float.sign_bit v && v = 0.)
  then add_int b (int_of_float v)
  else
    let s = Printf.sprintf "%.12g" v in
    Buffer.add_string b
      (if float_of_string s = v then s else Printf.sprintf "%.17g" v)

let float_text v =
  let b = Buffer.create 24 in
  add_float b v;
  Buffer.contents b

let to_buffer b { target; op } =
  let str = Buffer.add_string b in
  let int n = add_int b n in
  let rate r = add_float b r; str "Bps" in
  let time d = add_float b d; str "s" in
  let opt_int tag = function Some n -> str tag; int n | None -> () in
  let curve tag = function
    | Some (s : Curve.Service_curve.t) ->
        str tag;
        if s.d = 0. then (str " "; rate s.m2)
        else begin
          str " m1 "; rate s.m1; str " d "; time s.d; str " m2 "; rate s.m2
        end
    | None -> ()
  in
  let curves c =
    curve " rsc" c.rsc;
    curve " fsc" c.fsc;
    curve " ulimit" c.usc
  in
  let limit tag = function
    | Some Unlimited -> str tag; str "none"
    | Some (At n) -> str tag; int n
    | None -> ()
  in
  (match target with
  | Default_link -> ()
  | On_link name -> str "link "; str name; str " ");
  match op with
  | Add_class { name; parent; flow; curves = c; quantum; qlimit; qbytes } ->
      str "add class "; str name; str " parent "; str parent;
      opt_int " flow " flow;
      curves c;
      opt_int " quantum " quantum;
      opt_int " qlimit " qlimit;
      opt_int " qbytes " qbytes
  | Modify_class { name; curves = c; quantum; qlimit; qbytes } ->
      str "modify class "; str name;
      curves c;
      opt_int " quantum " quantum;
      opt_int " qlimit " qlimit;
      opt_int " qbytes " qbytes
  | Delete_class name -> str "delete class "; str name
  | Attach_filter f ->
      str "attach filter flow "; int f.fflow;
      (match f.fsrc with Some p -> str " src "; str p | None -> ());
      (match f.fdst with Some p -> str " dst "; str p | None -> ());
      (match f.fproto with
      | Some Pkt.Header.Tcp -> str " proto tcp"
      | Some Pkt.Header.Udp -> str " proto udp"
      | Some Pkt.Header.Icmp -> str " proto icmp"
      | Some (Pkt.Header.Other n) -> str " proto "; int n
      | None -> ());
      let ports tag = function
        | Some (lo, hi) -> str tag; int lo; str " "; int hi
        | None -> ()
      in
      ports " sport " f.fsport;
      ports " dport " f.fdport
  | Detach_filter flow -> str "detach filter flow "; int flow
  | Stats None -> str "stats"
  | Stats (Some n) -> str "stats "; str n
  | Trace Trace_on -> str "trace on"
  | Trace Trace_off -> str "trace off"
  | Trace Trace_dump -> str "trace dump"
  | Set_limit { lpkts; lbytes; lpolicy } ->
      str "limit";
      limit " pkts " lpkts;
      limit " bytes " lbytes;
      (match lpolicy with
      | Some Policy_tail -> str " policy tail"
      | Some Policy_longest -> str " policy longest"
      | None -> ())
  | Link_add { link; rate = r; backend } ->
      str "link add "; str link; str " rate "; rate r;
      (match backend with
      | Backend.Hfsc_kind -> ()
      | Backend.Rr_kind -> str " backend rr")
  | Link_delete name -> str "link delete "; str name
  | Link_list -> str "link list"

let to_string cmd =
  let b = Buffer.create 96 in
  to_buffer b cmd;
  Buffer.contents b

let pp ppf cmd = Format.pp_print_string ppf (to_string cmd)
let pp_float ppf v = Format.pp_print_string ppf (float_text v)

let is_mutating { op; _ } =
  match op with
  | Add_class _ | Modify_class _ | Delete_class _ | Attach_filter _
  | Detach_filter _ | Set_limit _ | Link_add _ | Link_delete _ ->
      true
  | Stats _ | Trace _ | Link_list -> false
