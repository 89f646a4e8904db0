(* Tests for the configuration DSL (lib/config). *)

let qt ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let err = function Ok _ -> Alcotest.fail "expected error" | Error e -> e

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* --- unit parsing -------------------------------------------------- *)

let test_rates () =
  Alcotest.(check (float 1e-9)) "Mbit" 5_625_000. (ok (Config.parse_rate "45Mbit"));
  Alcotest.(check (float 1e-9)) "Kbit" 8_000. (ok (Config.parse_rate "64Kbit"));
  Alcotest.(check (float 1e-9)) "Gbit" 125_000_000. (ok (Config.parse_rate "1Gbit"));
  Alcotest.(check (float 1e-9)) "bps" 1000. (ok (Config.parse_rate "8000bps"));
  Alcotest.(check (float 1e-9)) "MBps" 2_500_000. (ok (Config.parse_rate "2.5MBps"));
  Alcotest.(check (float 1e-9)) "Bps" 42. (ok (Config.parse_rate "42Bps"));
  Alcotest.(check bool) "missing unit" true
    (contains (err (Config.parse_rate "100")) "unit");
  Alcotest.(check bool) "negative" true
    (contains (err (Config.parse_rate "-5Mbit")) "non-negative");
  (* finite as written, infinite once scaled by its unit *)
  Alcotest.(check bool) "overflowing rate" true
    (contains (err (Config.parse_rate "1e308GBps")) "too large")

let test_times () =
  Alcotest.(check (float 1e-12)) "ms" 0.005 (ok (Config.parse_time "5ms"));
  Alcotest.(check (float 1e-12)) "us" 2e-5 (ok (Config.parse_time "20us"));
  Alcotest.(check (float 1e-12)) "s" 1.5 (ok (Config.parse_time "1.5s"));
  Alcotest.(check bool) "missing unit" true
    (contains (err (Config.parse_time "7")) "unit")

(* --- whole configurations ------------------------------------------- *)

(* A configuration is built the one way every device is: its commands
   through a router's [exec]. *)
let build text =
  Result.bind (Config.parse text) (fun c -> Runtime.Router.of_config c)
let router text = fst (ok (build text))

(* The sole link's engine. *)
let engine text =
  match Runtime.Router.links (router text) with
  | [ (_, eng) ] -> eng
  | ls -> Alcotest.failf "expected one link, got %d" (List.length ls)

let class_of_flow eng flow =
  match Runtime.Engine.flow_class eng flow with
  | Some id ->
      Option.get
        (Hfsc.find_class (Runtime.Engine.scheduler eng)
           (Runtime.Backend.cls_name (Runtime.Engine.backend eng) id))
  | None -> Alcotest.failf "flow %d unmapped" flow

let minimal =
  {|
link rate 8Mbit
class a parent root flow 1 fsc 4Mbit
class b parent root flow 2 fsc 4Mbit
source cbr flow 1 rate 1Mbit pkt 500
source greedy flow 2 rate 8Mbit pkt 1000
|}

let test_minimal () =
  let cfg = ok (Config.parse minimal) in
  let eng = engine minimal in
  Alcotest.(check (float 1e-9)) "link" 1e6 (Runtime.Engine.link_rate eng);
  Alcotest.(check (list int)) "two flows" [ 1; 2 ] (Runtime.Engine.flows eng);
  Alcotest.(check int) "two sources" 2
    (List.length (cfg.Config.sources ~until:1.));
  (* class names resolved *)
  let names =
    List.map
      (fun f ->
        Runtime.Backend.cls_name (Runtime.Engine.backend eng)
          (Option.get (Runtime.Engine.flow_class eng f)))
      (Runtime.Engine.flows eng)
  in
  Alcotest.(check (list string)) "names" [ "a"; "b" ] names

let test_hierarchy_and_curves () =
  let eng =
    engine
      {|
link rate 45Mbit
class cmu parent root fsc 25Mbit
class audio parent cmu flow 1 rsc umax 160 dmax 5ms rate 64Kbit
class capped parent cmu flow 2 fsc m1 1Mbit d 10ms m2 2Mbit ulimit 3Mbit qlimit 50
|}
  in
  let audio = class_of_flow eng 1 in
  (match Hfsc.rsc audio with
  | Some sc ->
      Alcotest.(check bool) "concave rsc" true
        (Curve.Service_curve.is_concave sc);
      Alcotest.(check (float 1e-6)) "rate" 8000. (Curve.Service_curve.rate sc)
  | None -> Alcotest.fail "audio should have an rsc");
  let capped = class_of_flow eng 2 in
  (match Hfsc.fsc capped with
  | Some sc ->
      Alcotest.(check (float 1e-6)) "m2" 250_000. (Curve.Service_curve.rate sc)
  | None -> Alcotest.fail "capped should have an fsc");
  Alcotest.(check bool) "usc present" true (Hfsc.usc capped <> None);
  (* parent chain *)
  match Hfsc.parent audio with
  | Some p -> Alcotest.(check string) "parent" "cmu" (Hfsc.name p)
  | None -> Alcotest.fail "expected parent"

let test_comments_and_whitespace () =
  let eng =
    engine
      "  # leading comment\n\
       link   rate\t8Mbit   # trailing\n\
       \n\
       class a parent root flow 1 fsc 8Mbit\n\
       source cbr flow 1 rate 1Mbit pkt 100\n"
  in
  Alcotest.(check int) "parsed" 1 (Runtime.Engine.flow_count eng)

(* [fragment] must appear in the load error, whichever step refuses:
   the file structure ([Config.parse]) or a command ([of_config]). *)
let expect_error text fragment =
  let e = err (build text) in
  Alcotest.(check bool) (Printf.sprintf "%S in %S" fragment e) true
    (contains e fragment)

let test_errors () =
  expect_error "class a parent root fsc 1Mbit" "missing 'link rate";
  expect_error "link rate 1Mbit\nlink rate 2Mbit" "duplicate 'link'";
  expect_error "link rate 1Mbit\nclass a parent nosuch fsc 1Mbit"
    "line 2: unknown-class";
  expect_error
    "link rate 1Mbit\nclass a parent root fsc 1Mbit\nclass a parent root fsc 1Mbit"
    "line 3: duplicate-class";
  expect_error "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
                class b parent root flow 1 fsc 1Mbit"
    "line 3: duplicate-flow";
  expect_error "link rate 1Mbit\nbogus stuff" "unknown statement";
  expect_error "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
                source cbr flow 2 rate 1Mbit pkt 10"
    "line 3: unknown-flow: source refers to unmapped flow 2";
  expect_error "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
                source poisson flow 1 rate 1Mbit pkt 10"
    "seed";
  expect_error "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
                source warp flow 1 rate 1Mbit pkt 10"
    "unknown source kind";
  expect_error "link rate 1Mbit\nlimit pkts 10\nlimit bytes 100"
    "line 3: duplicate 'limit'";
  (* line numbers in lexical errors *)
  expect_error "link rate 1Mbit\nclass a parent root fsc nounits"
    "line 2: parse-error"

(* Under the root, link-sharing demand at t = 5 ms is 5120 B against a
   capacity of 5000 B: rt's fair curve defaults to its rsc (160 B
   within 5 ms) and be's 7.936Mbit fsc adds 4960 B. So this text is
   refused at load; with be at 7.7Mbit it fits, and the simulation
   must then respect rt's curve. *)
let e2e_text be_rate =
  Printf.sprintf
    {|
link rate 8Mbit
class rt parent root flow 1 rsc umax 160 dmax 5ms rate 64Kbit
class be parent root flow 2 fsc %s
source cbr flow 1 rate 64Kbit pkt 160
source greedy flow 2 rate 8Mbit pkt 1000
|}
    be_rate

let test_end_to_end_sim () =
  expect_error (e2e_text "7.936Mbit") "line 4: admission-linkshare";
  (* a parsed config must actually run and respect its curves *)
  let text = e2e_text "7.7Mbit" in
  let cfg = ok (Config.parse text) in
  let eng = engine text in
  let sched = Runtime.Engine.adapter eng in
  let sim =
    Netsim.Sim.create ~link_rate:(Runtime.Engine.link_rate eng) ~sched ()
  in
  let delays = Netsim.Stats.Flow_delay.attach sim in
  List.iter (Netsim.Sim.add_source sim) (cfg.Config.sources ~until:3.);
  Netsim.Sim.run sim ~until:3.;
  match Netsim.Stats.Flow_delay.find delays 1 with
  | Some d ->
      Alcotest.(check bool) "rt guarantee honored" true
        (Netsim.Stats.Delay.max d <= 0.005 +. (1000. /. 1e6) +. 1e-9)
  | None -> Alcotest.fail "no rt packets"

(* sources from a config are freshly instantiated on each call *)
let test_sources_fresh () =
  let cfg = ok (Config.parse minimal) in
  let take srcs =
    List.map
      (fun s ->
        match Netsim.Source.next s with Some (t, _) -> t | None -> -1.)
      srcs
  in
  let a = take (cfg.Config.sources ~until:1.) in
  let b = take (cfg.Config.sources ~until:1.) in
  Alcotest.(check (list (float 0.))) "identical fresh streams" a b

(* A sole-link file may list classes before its link line: it builds
   the same device as the link-first order. *)
let test_sole_link_order () =
  let body =
    "class a parent root flow 1 fsc 4Mbit\n\
     class g parent root fsc 2Mbit\n\
     class g1 parent g flow 2 fsc 1Mbit\n\
     limit pkts 100\n"
  in
  let link = "link rate 8Mbit\n" in
  let fp text = Runtime.Router.config_fingerprint (router text) in
  Alcotest.(check string) "class-first = link-first" (fp (link ^ body))
    (fp (body ^ link));
  (* the reordering keeps each statement's own line *)
  expect_error ("class a parent nosuch fsc 1Mbit\n" ^ link)
    "line 1: unknown-class"

(* --- multi-link (sectioned) configurations ------------------------- *)

let multi_text =
  {|
link west rate 8Mbit
class a parent root flow 1 fsc 4Mbit
class g parent root fsc 2Mbit
class g1 parent g flow 2 fsc 1Mbit
limit pkts 100

link east rate 4Mbit
class b parent root flow 3 fsc 2Mbit

source cbr flow 1 rate 1Mbit pkt 500
source cbr flow 3 rate 1Mbit pkt 500
|}

let test_multi_link_sections () =
  let r, warnings = ok (build multi_text) in
  let links = Runtime.Router.links r in
  Alcotest.(check (list string)) "names in file order" [ "west"; "east" ]
    (List.map fst links);
  let west = List.assoc "west" links and east = List.assoc "east" links in
  Alcotest.(check (float 1e-9)) "west rate" 1e6 (Runtime.Engine.link_rate west);
  Alcotest.(check (float 1e-9)) "east rate" 5e5 (Runtime.Engine.link_rate east);
  (* classes bind to the section they follow *)
  Alcotest.(check int) "west classes (incl. root)" 4
    (List.length (Runtime.Backend.class_ids (Runtime.Engine.backend west)));
  Alcotest.(check int) "east classes (incl. root)" 2
    (List.length (Runtime.Backend.class_ids (Runtime.Engine.backend east)));
  (* limit binds to its section too *)
  Alcotest.(check int) "west aggregate limit" 100
    (Hfsc.aggregate_limit_pkts (Runtime.Engine.scheduler west));
  Alcotest.(check int) "east aggregate limit" max_int
    (Hfsc.aggregate_limit_pkts (Runtime.Engine.scheduler east));
  (* flow maps are per link, flow ids device-wide unique *)
  Alcotest.(check (list int)) "west flows" [ 1; 2 ] (Runtime.Engine.flows west);
  Alcotest.(check (list int)) "east flows" [ 3 ] (Runtime.Engine.flows east);
  Alcotest.(check (list string)) "flow 2 unsourced"
    [ "link \"west\": flow 2 has no traffic source" ]
    warnings;
  (* per-link warnings are prefixed with the link name *)
  let _, sourceless =
    ok
      (build
         "link west rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
          link east rate 1Mbit\nclass b parent root flow 2 fsc 1Mbit\n\
          source cbr flow 1 rate 1Kbit pkt 100\n")
  in
  Alcotest.(check bool) "warning names the link" true
    (List.exists
       (fun w -> contains w "link \"east\"" && contains w "no traffic source")
       sourceless)

let test_multi_link_errors () =
  (* every link after the first needs a name *)
  expect_error "link west rate 1Mbit\nlink rate 2Mbit"
    "line 2: duplicate 'link'";
  expect_error
    "link a rate 1Mbit\nclass x parent root fsc 1Mbit\n\
     link a rate 2Mbit\nclass y parent root fsc 1Mbit"
    "line 3: duplicate-link";
  (* control-command verbs cannot name a link *)
  expect_error "link add rate 1Mbit"
    "line 1: bad-value: link name \"add\" is reserved";
  expect_error "link list rate 1Mbit" "reserved";
  (* with several links, every class must fall inside a section (a
     single-link file keeps the historical order-insensitive reading) *)
  expect_error
    "class a parent root fsc 1Mbit\nlink west rate 1Mbit\n\
     link east rate 1Mbit\nclass b parent root fsc 1Mbit"
    "before any 'link'";
  (* flow ids are device-wide unique across links *)
  expect_error
    "link a rate 1Mbit\nclass x parent root flow 1 fsc 1Mbit\n\
     link b rate 1Mbit\nclass y parent root flow 1 fsc 1Mbit"
    "line 4: duplicate-flow";
  (* sources resolve against the union flow map *)
  expect_error
    "link a rate 1Mbit\nclass x parent root flow 1 fsc 1Mbit\n\
     link b rate 1Mbit\nclass y parent root flow 2 fsc 1Mbit\n\
     source cbr flow 9 rate 1Kbit pkt 100"
    "line 5: unknown-flow"

let test_validate () =
  (* clean config: no warnings *)
  let _, clean = ok (build minimal) in
  Alcotest.(check (list string)) "clean" [] clean;
  (* oversubscribed real-time curves: refused where the second leaf
     is added *)
  expect_error
    {|link rate 1Mbit
class a parent root flow 1 rsc 800Kbit
class b parent root flow 2 rsc 800Kbit
source cbr flow 1 rate 1Kbit pkt 100
source cbr flow 2 rate 1Kbit pkt 100
|}
    "line 3: admission-realtime";
  (* children outgrow parent fsc *)
  expect_error
    {|link rate 10Mbit
class p parent root fsc 1Mbit
class a parent p flow 1 fsc 800Kbit
class b parent p flow 2 fsc 800Kbit
source cbr flow 1 rate 1Kbit pkt 100
source cbr flow 2 rate 1Kbit pkt 100
|}
    "line 4: admission-linkshare";
  (* sourceless flow *)
  let _, sourceless =
    ok (build "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n")
  in
  Alcotest.(check (list string)) "no-source warning"
    [ "flow 1 has no traffic source" ] sourceless

let roundtrip_rate =
  qt "rate parsing scales linearly"
    QCheck2.Gen.(float_range 0.001 10_000.)
    (fun v ->
      let s = Printf.sprintf "%.6fMbit" v in
      match Config.parse_rate s with
      | Ok r -> Float.abs (r -. (v *. 1e6 /. 8.)) < 1e-3 *. v *. 1e6
      | Error _ -> false)

let () =
  Alcotest.run "config"
    [
      ( "units",
        [
          Alcotest.test_case "rates" `Quick test_rates;
          Alcotest.test_case "times" `Quick test_times;
          roundtrip_rate;
        ] );
      ( "configs",
        [
          Alcotest.test_case "minimal" `Quick test_minimal;
          Alcotest.test_case "hierarchy + curves" `Quick
            test_hierarchy_and_curves;
          Alcotest.test_case "comments/whitespace" `Quick
            test_comments_and_whitespace;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "end-to-end simulation" `Quick
            test_end_to_end_sim;
          Alcotest.test_case "sources are fresh" `Quick test_sources_fresh;
          Alcotest.test_case "sole link: classes before link" `Quick
            test_sole_link_order;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "multi-link sections" `Quick
            test_multi_link_sections;
          Alcotest.test_case "multi-link errors" `Quick test_multi_link_errors;
        ] );
    ]
