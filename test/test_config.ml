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
    (contains (err (Config.parse_rate "-5Mbit")) "non-negative")

let test_times () =
  Alcotest.(check (float 1e-12)) "ms" 0.005 (ok (Config.parse_time "5ms"));
  Alcotest.(check (float 1e-12)) "us" 2e-5 (ok (Config.parse_time "20us"));
  Alcotest.(check (float 1e-12)) "s" 1.5 (ok (Config.parse_time "1.5s"));
  Alcotest.(check bool) "missing unit" true
    (contains (err (Config.parse_time "7")) "unit")

(* --- whole configurations ------------------------------------------- *)

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
  Alcotest.(check (float 1e-9)) "link" 1e6 cfg.Config.link_rate;
  Alcotest.(check int) "two flows" 2 (List.length cfg.Config.flow_map);
  Alcotest.(check int) "two sources" 2
    (List.length (cfg.Config.sources ~until:1.));
  (* class names resolved *)
  let names =
    List.map (fun (_, c) -> Hfsc.name c) cfg.Config.flow_map
  in
  Alcotest.(check (list string)) "names" [ "a"; "b" ] names

let test_hierarchy_and_curves () =
  let cfg =
    ok
      (Config.parse
         {|
link rate 45Mbit
class cmu parent root fsc 25Mbit
class audio parent cmu flow 1 rsc umax 160 dmax 5ms rate 64Kbit
class capped parent cmu flow 2 fsc m1 1Mbit d 10ms m2 2Mbit ulimit 3Mbit qlimit 50
|})
  in
  let audio = List.assoc 1 cfg.Config.flow_map in
  (match Hfsc.rsc audio with
  | Some sc ->
      Alcotest.(check bool) "concave rsc" true
        (Curve.Service_curve.is_concave sc);
      Alcotest.(check (float 1e-6)) "rate" 8000. (Curve.Service_curve.rate sc)
  | None -> Alcotest.fail "audio should have an rsc");
  let capped = List.assoc 2 cfg.Config.flow_map in
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
  let cfg =
    ok
      (Config.parse
         "  # leading comment\n\
          link   rate\t8Mbit   # trailing\n\
          \n\
          class a parent root flow 1 fsc 8Mbit\n\
          source cbr flow 1 rate 1Mbit pkt 100\n")
  in
  Alcotest.(check int) "parsed" 1 (List.length cfg.Config.flow_map)

let expect_error text fragment =
  let e = err (Config.parse text) in
  Alcotest.(check bool) (Printf.sprintf "%S in %S" fragment e) true
    (contains e fragment)

let test_errors () =
  expect_error "class a parent root fsc 1Mbit" "missing 'link rate";
  expect_error "link rate 1Mbit\nlink rate 2Mbit" "duplicate 'link'";
  expect_error "link rate 1Mbit\nclass a parent nosuch fsc 1Mbit" "unknown parent";
  expect_error
    "link rate 1Mbit\nclass a parent root fsc 1Mbit\nclass a parent root fsc 1Mbit"
    "duplicate class";
  expect_error "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
                class b parent root flow 1 fsc 1Mbit"
    "mapped twice";
  expect_error "link rate 1Mbit\nbogus stuff" "unknown statement";
  expect_error "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
                source cbr flow 2 rate 1Mbit pkt 10"
    "unmapped flow";
  expect_error "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
                source poisson flow 1 rate 1Mbit pkt 10"
    "seed";
  expect_error "link rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
                source warp flow 1 rate 1Mbit pkt 10"
    "unknown source kind";
  (* line numbers in lexical errors *)
  expect_error "link rate 1Mbit\nclass a parent root fsc nounits" "line 2"

let test_end_to_end_sim () =
  (* a parsed config must actually run and respect its curves *)
  let cfg =
    ok
      (Config.parse
         {|
link rate 8Mbit
class rt parent root flow 1 rsc umax 160 dmax 5ms rate 64Kbit
class be parent root flow 2 fsc 7.936Mbit
source cbr flow 1 rate 64Kbit pkt 160
source greedy flow 2 rate 8Mbit pkt 1000
|})
  in
  let sched = Runtime.Engine.adapter (Runtime.Engine.of_config cfg) in
  let sim = Netsim.Sim.create ~link_rate:cfg.Config.link_rate ~sched () in
  List.iter (Netsim.Sim.add_source sim) (cfg.Config.sources ~until:3.);
  Netsim.Sim.run sim ~until:3.;
  match Netsim.Sim.delay_of_flow sim 1 with
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

let hfsc_of (l : Config.link) =
  match l.Config.lbuilt with
  | Config.Built_hfsc (s, fm) -> (s, fm)
  | Config.Built_rr _ -> Alcotest.fail "expected an hfsc-backend link"

let test_multi_link_sections () =
  let cfg = ok (Config.parse multi_text) in
  Alcotest.(check int) "two links" 2 (List.length cfg.Config.links);
  let west = List.nth cfg.Config.links 0 in
  let east = List.nth cfg.Config.links 1 in
  Alcotest.(check string) "names in file order" "west" west.Config.lname;
  Alcotest.(check string) "second name" "east" east.Config.lname;
  Alcotest.(check (float 1e-9)) "west rate" 1e6 west.Config.lrate;
  Alcotest.(check (float 1e-9)) "east rate" 5e5 east.Config.lrate;
  (* classes bind to the section they follow *)
  Alcotest.(check int) "west classes (incl. root)" 4
    (List.length (Hfsc.classes (fst (hfsc_of west))));
  Alcotest.(check int) "east classes (incl. root)" 2
    (List.length (Hfsc.classes (fst (hfsc_of east))));
  (* limit binds to its section too *)
  Alcotest.(check int) "west aggregate limit" 100
    (Hfsc.aggregate_limit_pkts (fst (hfsc_of west)));
  (* flow maps are per link, flow ids device-wide unique *)
  Alcotest.(check (list int)) "west flows" [ 1; 2 ]
    (List.sort compare (List.map fst (snd (hfsc_of west))));
  Alcotest.(check (list int)) "east flows" [ 3 ]
    (List.map fst (snd (hfsc_of east)));
  (* the single-link mirror fields point at the first link *)
  Alcotest.(check bool) "scheduler mirrors head link" true
    (cfg.Config.scheduler == fst (hfsc_of west));
  (* validation prefixes per-link warnings with the link name *)
  let sourceless =
    ok
      (Config.parse
         "link west rate 1Mbit\nclass a parent root flow 1 fsc 1Mbit\n\
          link east rate 1Mbit\nclass b parent root flow 2 fsc 1Mbit\n\
          source cbr flow 1 rate 1Kbit pkt 100\n")
  in
  Alcotest.(check bool) "warning names the link" true
    (List.exists
       (fun w -> contains w "link \"east\"" && contains w "no traffic source")
       (Config.validate sourceless))

let test_multi_link_errors () =
  (* every link after the first needs a name *)
  expect_error "link west rate 1Mbit\nlink rate 2Mbit" "needs a name";
  expect_error
    "link a rate 1Mbit\nclass x parent root fsc 1Mbit\n\
     link a rate 2Mbit\nclass y parent root fsc 1Mbit"
    "duplicate link name";
  (* control-command verbs cannot name a link *)
  expect_error "link add rate 1Mbit" "reserved";
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
    "mapped twice";
  (* sources resolve against the union flow map *)
  expect_error
    "link a rate 1Mbit\nclass x parent root flow 1 fsc 1Mbit\n\
     link b rate 1Mbit\nclass y parent root flow 2 fsc 1Mbit\n\
     source cbr flow 9 rate 1Kbit pkt 100"
    "unmapped flow"

let test_validate () =
  (* clean config: no warnings *)
  let clean = ok (Config.parse minimal) in
  Alcotest.(check (list string)) "clean" [] (Config.validate clean);
  (* oversubscribed real-time curves *)
  let over =
    ok
      (Config.parse
         {|
link rate 1Mbit
class a parent root flow 1 rsc 800Kbit
class b parent root flow 2 rsc 800Kbit
source cbr flow 1 rate 1Kbit pkt 100
source cbr flow 2 rate 1Kbit pkt 100
|})
  in
  Alcotest.(check bool) "admission warning" true
    (List.exists
       (fun w -> String.length w > 0 && String.sub w 0 9 = "real-time")
       (Config.validate over));
  (* children outgrow parent fsc *)
  let outgrow =
    ok
      (Config.parse
         {|
link rate 10Mbit
class p parent root fsc 1Mbit
class a parent p flow 1 fsc 800Kbit
class b parent p flow 2 fsc 800Kbit
source cbr flow 1 rate 1Kbit pkt 100
source cbr flow 2 rate 1Kbit pkt 100
|})
  in
  Alcotest.(check bool) "hierarchy warning" true
    (List.exists
       (fun w ->
         List.exists
           (fun frag -> contains w frag)
           [ "outgrow" ])
       (Config.validate outgrow));
  (* sourceless flow *)
  let sourceless =
    ok
      (Config.parse
         "link rate 1Mbit
class a parent root flow 1 fsc 1Mbit
")
  in
  Alcotest.(check bool) "no-source warning" true
    (List.exists (fun w -> contains w "no traffic source")
       (Config.validate sourceless))

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
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "multi-link sections" `Quick
            test_multi_link_sections;
          Alcotest.test_case "multi-link errors" `Quick test_multi_link_errors;
        ] );
    ]
