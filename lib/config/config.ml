type t = {
  commands : (int * string) list;
  sources : until:float -> Netsim.Source.t list;
  source_flows : (int * int) list;
}

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- token-level parsers -------------------------------------------- *)

(* Whether [s] holds [suffix] from [off] on, from its [i]th character. *)
let rec suffix_from s suffix ~off i =
  i = String.length suffix
  || (s.[off + i] = suffix.[i] && suffix_from s suffix ~off (i + 1))

(* The number in front of [suffix], if [s] is one followed by it; the
   suffix is compared in place, so a unit that does not match costs no
   allocation. *)
let strip_suffix s suffix =
  let n = String.length s and k = String.length suffix in
  if n > k && suffix_from s suffix ~off:(n - k) 0 then
    Some (String.sub s 0 (n - k))
  else None

let float_of_token s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v && v >= 0. -> v
  | _ -> fail "expected a non-negative number, got %S" s

(* Longest-suffix-first so "MBps" is not misread as "Bps". The value is
   returned in bytes/second. *)
let rate_units =
  [
    ("GBps", 1e9); ("MBps", 1e6); ("KBps", 1e3); ("Bps", 1.);
    ("Gbit", 1e9 /. 8.); ("Mbit", 1e6 /. 8.); ("Kbit", 1e3 /. 8.);
    ("bps", 1. /. 8.); ("bit", 1. /. 8.);
  ]

let parse_rate_exn s =
  let rec try_units = function
    | [] -> fail "rate %S needs a unit (e.g. 45Mbit, 100KBps)" s
    | (u, mult) :: rest -> (
        match strip_suffix s u with
        | Some num ->
            (* a finite number can overflow once scaled by its unit *)
            let v = float_of_token num *. mult in
            if Float.is_finite v then v else fail "rate %S is too large" s
        | None -> try_units rest)
  in
  try_units rate_units

let time_units = [ ("ms", 1e-3); ("us", 1e-6); ("s", 1.) ]

let parse_time_exn s =
  let rec try_units = function
    | [] -> fail "time %S needs a unit (e.g. 5ms, 2s)" s
    | (u, mult) :: rest -> (
        match strip_suffix s u with
        | Some num -> float_of_token num *. mult
        | None -> try_units rest)
  in
  try_units time_units

let parse_rate s =
  try Ok (parse_rate_exn s) with Parse_error e -> Error e

let parse_time s =
  try Ok (parse_time_exn s) with Parse_error e -> Error e

let int_of_token s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "expected an integer, got %S" s

(* --- a tiny token stream --------------------------------------------- *)

type stream = { mutable toks : string list }

let next st =
  match st.toks with
  | [] -> fail "unexpected end of line"
  | t :: rest ->
      st.toks <- rest;
      t

let peek st = match st.toks with [] -> None | t :: _ -> Some t
let expect st kw =
  let t = next st in
  if t <> kw then fail "expected %S, got %S" kw t

(* A curve spec: "RATE", "m1 R d T m2 R" or (rsc only) "umax B dmax T
   rate R". *)
let parse_curve st =
  match peek st with
  | Some "m1" ->
      expect st "m1";
      let m1 = parse_rate_exn (next st) in
      expect st "d";
      let d = parse_time_exn (next st) in
      expect st "m2";
      let m2 = parse_rate_exn (next st) in
      Curve.Service_curve.make ~m1 ~d ~m2
  | Some "umax" ->
      expect st "umax";
      let umax = float_of_token (next st) in
      expect st "dmax";
      let dmax = parse_time_exn (next st) in
      expect st "rate";
      let rate = parse_rate_exn (next st) in
      Curve.Service_curve.of_requirements ~umax ~dmax ~rate
  | Some _ -> Curve.Service_curve.linear (parse_rate_exn (next st))
  | None -> fail "expected a curve specification"

let parse_curve_tokens toks =
  let st = { toks } in
  try
    let c = parse_curve st in
    Ok (c, st.toks)
  with
  | Parse_error e -> Error e
  | Invalid_argument e -> Error e

(* --- statement parsing ------------------------------------------------ *)

type source_spec = {
  skind : string;
  sflow : int;
  srate : float;
  spkt : int;
  sseed : int option;
  son : float option;
  soff : float option;
  scount : int option;
  sat : float option;
  sstart : float;
  sstop : float option;
}

(* Device statements keep their tokens: they are rewritten into the
   command grammar, and the command parser judges them. *)
type stmt =
  | Link of string option * string list
    (* optional name (None = sole link), then "rate R [backend B]" *)
  | Class of string list (* everything after "class" *)
  | Limit of string list (* everything after "limit" *)
  | Source of source_spec

let parse_source st =
  let skind = next st in
  let flow = ref None and rate = ref None and pkt = ref None in
  let seed = ref None and on = ref None and off = ref None in
  let count = ref None and at = ref None in
  let start = ref 0. and stop = ref None in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | None -> continue_ := false
    | Some kw -> (
        ignore (next st);
        match kw with
        | "flow" -> flow := Some (int_of_token (next st))
        | "rate" -> rate := Some (parse_rate_exn (next st))
        | "pkt" -> pkt := Some (int_of_token (next st))
        | "seed" -> seed := Some (int_of_token (next st))
        | "on" -> on := Some (parse_time_exn (next st))
        | "off" -> off := Some (parse_time_exn (next st))
        | "count" -> count := Some (int_of_token (next st))
        | "at" -> at := Some (parse_time_exn (next st))
        | "start" -> start := parse_time_exn (next st)
        | "stop" -> stop := Some (parse_time_exn (next st))
        | other -> fail "unknown source attribute %S" other)
  done;
  let req name = function Some v -> v | None -> fail "source needs %s" name in
  let s =
    {
      skind;
      sflow = req "flow" !flow;
      srate = (match !rate with Some r -> r | None -> 0.);
      spkt = (match !pkt with Some p -> p | None -> 0);
      sseed = !seed;
      son = !on;
      soff = !off;
      scount = !count;
      sat = !at;
      sstart = !start;
      sstop = !stop;
    }
  in
  (match s.skind with
  | "cbr" | "greedy" ->
      if s.srate <= 0. || s.spkt <= 0 then
        fail "%s source needs rate and pkt" s.skind
  | "poisson" ->
      if s.srate <= 0. || s.spkt <= 0 || s.sseed = None then
        fail "poisson source needs rate, pkt and seed"
  | "onoff" ->
      if
        s.srate <= 0. || s.spkt <= 0 || s.sseed = None || s.son = None
        || s.soff = None
      then fail "onoff source needs rate, pkt, on, off and seed"
  | "burst" ->
      if s.spkt <= 0 || s.scount = None then
        fail "burst source needs pkt and count"
  | other -> fail "unknown source kind %S" other);
  Source s

let parse_line line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let toks =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  in
  match toks with
  | [] -> None
  | "link" :: rest -> (
      match rest with
      | [] -> fail "link: expected [NAME] rate RATE [backend hfsc|rr]"
      | "rate" :: _ -> Some (Link (None, rest))
      | name :: rest -> Some (Link (Some name, rest)))
  | "class" :: rest -> Some (Class rest)
  | "limit" :: rest -> Some (Limit rest)
  | "source" :: rest -> Some (parse_source { toks = rest })
  | other :: _ -> fail "unknown statement %S" other

(* --- the device as commands ------------------------------------------- *)

let command words = String.concat " " words

(* One [link add] per link statement, and each class and limit
   statement scoped to its link, every command with the line it came
   from. [stmts] carries file lines and is in file order. *)
let device stmts =
  let at line fmt = Printf.ksprintf (fun s -> fail "line %d: %s" line s) fmt in
  let link_add name (line, rest) =
    (line, command ("link" :: "add" :: name :: rest))
  in
  let scoped name limited = function
    | line, Class toks ->
        Some (line, command ("link" :: name :: "add" :: "class" :: toks))
    | line, Limit toks ->
        if !limited then at line "duplicate 'limit' statement";
        limited := true;
        Some (line, command ("link" :: name :: "limit" :: toks))
    | _, (Link _ | Source _) -> None
  in
  match
    List.filter_map
      (function line, Link (n, rest) -> Some (line, n, rest) | _ -> None)
      stmts
  with
  | [] -> fail "missing 'link rate ...' statement"
  | [ (line, name, rest) ] ->
      (* sole link: keep the historical order-insensitive semantics —
         classes may precede the link statement *)
      let name = Option.value name ~default:"link0" in
      let limited = ref false in
      link_add name (line, rest) :: List.filter_map (scoped name limited) stmts
  | _ ->
      (* several links: sections — class and limit statements bind to
         the most recent link statement *)
      let current = ref None and limited = ref false in
      List.filter_map
        (fun (line, stmt) ->
          match (stmt, !current) with
          | Link (name, rest), cur ->
              let name =
                match (name, cur) with
                | Some n, _ -> n
                | None, None -> "link0"
                | None, Some _ ->
                    at line
                      "duplicate 'link' statement: every link after the \
                       first needs a name"
              in
              current := Some name;
              limited := false;
              Some (link_add name (line, rest))
          | Class toks, None ->
              at line "class %S before any 'link' statement"
                (match toks with n :: _ -> n | [] -> "")
          | Limit _, None -> at line "'limit' before any 'link' statement"
          | _, Some name -> scoped name limited (line, stmt)
          | Source _, None -> None)
        stmts

let sources_of specs ~until =
  List.map
    (fun s ->
      let stop = match s.sstop with Some v -> v | None -> until in
      match s.skind with
      | "cbr" | "greedy" ->
          Netsim.Source.cbr ~flow:s.sflow ~rate:s.srate ~pkt_size:s.spkt
            ~start:s.sstart ~stop ()
      | "poisson" ->
          Netsim.Source.poisson ~flow:s.sflow ~rate:s.srate ~pkt_size:s.spkt
            ~seed:(Option.get s.sseed)
            ~start:s.sstart ~stop ()
      | "onoff" ->
          Netsim.Source.on_off_exp ~flow:s.sflow ~peak_rate:s.srate
            ~pkt_size:s.spkt
            ~mean_on:(Option.get s.son)
            ~mean_off:(Option.get s.soff)
            ~seed:(Option.get s.sseed)
            ~start:s.sstart ~stop ()
      | "burst" ->
          Netsim.Source.burst ~flow:s.sflow ~pkt_size:s.spkt
            ~count:(Option.get s.scount)
            ~at:(match s.sat with Some v -> v | None -> s.sstart)
      | _ -> assert false)
    specs

let parse text =
  try
    let stmts =
      String.split_on_char '\n' text
      |> List.mapi (fun i line -> (i + 1, line))
      |> List.filter_map (fun (n, line) ->
             try Option.map (fun s -> (n, s)) (parse_line line)
             with Parse_error e ->
               raise (Parse_error (Printf.sprintf "line %d: %s" n e)))
    in
    let specs =
      List.filter_map
        (function line, Source s -> Some (line, s) | _ -> None)
        stmts
    in
    Ok
      {
        commands = device stmts;
        sources = sources_of (List.map snd specs);
        source_flows = List.map (fun (line, s) -> (line, s.sflow)) specs;
      }
  with Parse_error e -> Error e

let load path =
  match
    try
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok s
    with Sys_error e -> Error e
  with
  | Ok text -> parse text
  | Error e -> Error e
