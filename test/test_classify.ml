(* Tests for the classification substrate (lib/classify): IPv4 address
   and prefix handling, longest-prefix match against brute force, and
   rule tables. *)

let qt ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- addresses and prefixes --------------------------------------- *)

let test_addr_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s
        (Pkt.Header.addr_to_string (Pkt.Header.addr_of_string s)))
    [ "0.0.0.0"; "10.1.2.3"; "192.168.255.1"; "255.255.255.255" ]

let test_addr_malformed () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true
        (try
           ignore (Pkt.Header.addr_of_string s);
           false
         with Invalid_argument _ -> true))
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.0.0.1"; "a.b.c.d"; "1.2.3.-4" ]

let addr_roundtrip_prop =
  qt "addr string round trip" QCheck2.Gen.ui32 (fun a ->
      Pkt.Header.addr_of_string (Pkt.Header.addr_to_string a) = a)

let test_prefix_basics () =
  let p = Classify.Prefix.of_string "10.0.0.0/8" in
  Alcotest.(check string) "to_string" "10.0.0.0/8" (Classify.Prefix.to_string p);
  Alcotest.(check bool) "inside" true
    (Classify.Prefix.matches p (Pkt.Header.addr_of_string "10.255.3.4"));
  Alcotest.(check bool) "outside" false
    (Classify.Prefix.matches p (Pkt.Header.addr_of_string "11.0.0.1"));
  (* host bits cleared *)
  Alcotest.(check string) "normalized" "10.0.0.0/8"
    (Classify.Prefix.to_string (Classify.Prefix.of_string "10.9.8.7/8"));
  (* bare address = /32 *)
  let h = Classify.Prefix.of_string "1.2.3.4" in
  Alcotest.(check bool) "host match" true
    (Classify.Prefix.matches h (Pkt.Header.addr_of_string "1.2.3.4"));
  Alcotest.(check bool) "host non-match" false
    (Classify.Prefix.matches h (Pkt.Header.addr_of_string "1.2.3.5"));
  (* /0 matches all *)
  Alcotest.(check bool) "any" true (Classify.Prefix.matches Classify.Prefix.any 0xdeadbeefl)

let test_prefix_malformed () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true
        (try
           ignore (Classify.Prefix.of_string s);
           false
         with Invalid_argument _ -> true))
    [ "10.0.0.0/33"; "10.0.0.0/-1"; "10.0.0.0/x"; "1.2/8" ]

(* --- rules ----------------------------------------------------------- *)

let hdr ?(src = "10.0.0.1") ?(dst = "192.168.1.1") ?(proto = Pkt.Header.Tcp)
    ?(sport = 1234) ?(dport = 80) () =
  Pkt.Header.make ~src ~dst ~proto ~sport ~dport ()

let test_rules_first_match () =
  let t =
    Classify.Rules.create ~default:99
      [
        Classify.Rules.rule ~dst:"192.168.1.0/24" ~proto:Pkt.Header.Tcp
          ~dport:(80, 80) ~flow:1 ();
        Classify.Rules.rule ~dst:"192.168.1.0/24" ~flow:2 ();
        Classify.Rules.rule ~src:"10.0.0.0/8" ~flow:3 ();
      ]
  in
  let c h = Classify.Rules.classify t h in
  Alcotest.(check (option int)) "web" (Some 1) (c (hdr ()));
  Alcotest.(check (option int)) "same net, other port" (Some 2)
    (c (hdr ~dport:443 ()));
  Alcotest.(check (option int)) "udp same net" (Some 2)
    (c (hdr ~proto:Pkt.Header.Udp ()));
  Alcotest.(check (option int)) "by source" (Some 3)
    (c (hdr ~dst:"8.8.8.8" ()));
  Alcotest.(check (option int)) "default" (Some 99)
    (c (hdr ~src:"172.16.0.1" ~dst:"8.8.8.8" ()));
  Alcotest.(check int) "length" 3 (Classify.Rules.length t)

let test_rules_no_default () =
  let t = Classify.Rules.create [ Classify.Rules.rule ~src:"10.0.0.0/8" ~flow:1 () ] in
  Alcotest.(check (option int)) "unmatched" None
    (Classify.Rules.classify t (hdr ~src:"11.0.0.1" ()))

let test_rules_port_ranges () =
  let t =
    Classify.Rules.create
      [ Classify.Rules.rule ~dport:(8000, 8999) ~flow:1 () ]
  in
  Alcotest.(check (option int)) "in range" (Some 1)
    (Classify.Rules.classify t (hdr ~dport:8500 ()));
  Alcotest.(check (option int)) "below" None
    (Classify.Rules.classify t (hdr ~dport:7999 ()));
  Alcotest.(check (option int)) "above" None
    (Classify.Rules.classify t (hdr ~dport:9000 ()));
  Alcotest.(check bool) "bad range rejected" true
    (try
       ignore (Classify.Rules.rule ~dport:(9, 1) ~flow:1 ());
       false
     with Invalid_argument _ -> true)

let test_rules_proto_other () =
  let t =
    Classify.Rules.create
      [ Classify.Rules.rule ~proto:(Pkt.Header.Other 47) ~flow:7 () ]
  in
  Alcotest.(check (option int)) "gre matches" (Some 7)
    (Classify.Rules.classify t (hdr ~proto:(Pkt.Header.Other 47) ()));
  Alcotest.(check (option int)) "tcp does not" None
    (Classify.Rules.classify t (hdr ()))

(* classification in front of H-FSC: the end-to-end wiring *)
let test_rules_drive_hfsc () =
  let link = 1e6 in
  let t = Hfsc.create ~link_rate:link () in
  let voice =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"voice"
      ~fsc:(Curve.Service_curve.linear 1e5) ()
  in
  let bulk =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"bulk"
      ~fsc:(Curve.Service_curve.linear 9e5) ()
  in
  let rules =
    Classify.Rules.create ~default:2
      [ Classify.Rules.rule ~proto:Pkt.Header.Udp ~dport:(5004, 5005) ~flow:1 () ]
  in
  let classify_and_enqueue h size seq =
    let flow = Option.get (Classify.Rules.classify rules h) in
    let cls = if flow = 1 then voice else bulk in
    ignore
      (Hfsc.enqueue t ~now:0. cls
         (Pkt.Packet.make ~flow ~size ~seq ~arrival:0.))
  in
  classify_and_enqueue
    (hdr ~proto:Pkt.Header.Udp ~dport:5004 ())
    160 0;
  classify_and_enqueue (hdr ~dport:22 ()) 1000 0;
  Alcotest.(check int) "voice queued" 1 (Hfsc.queue_length voice);
  Alcotest.(check int) "bulk queued" 1 (Hfsc.queue_length bulk)

let () =
  Alcotest.run "classify"
    [
      ( "addresses",
        [
          Alcotest.test_case "roundtrip" `Quick test_addr_roundtrip;
          Alcotest.test_case "malformed" `Quick test_addr_malformed;
          addr_roundtrip_prop;
        ] );
      ( "prefixes",
        [
          Alcotest.test_case "basics" `Quick test_prefix_basics;
          Alcotest.test_case "malformed" `Quick test_prefix_malformed;
        ] );
      ( "rules",
        [
          Alcotest.test_case "first match" `Quick test_rules_first_match;
          Alcotest.test_case "no default" `Quick test_rules_no_default;
          Alcotest.test_case "port ranges" `Quick test_rules_port_ranges;
          Alcotest.test_case "proto other" `Quick test_rules_proto_other;
          Alcotest.test_case "drives hfsc" `Quick test_rules_drive_hfsc;
        ] );
    ]
