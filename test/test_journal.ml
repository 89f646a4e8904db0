(* Tests for the write-ahead journal (lib/runtime/journal.ml): framing
   round-trips, the crash contract (EVERY byte-length prefix of a
   journal recovers cleanly to the last complete record — swept
   exhaustively), the typed corruption matrix for damage that is not a
   torn tail, generation fallback rules, and the checkpoint+replay
   differential: a checkpoint replayed into a fresh device must be
   configuration-bit-identical to the original, for the engine, the
   sequential router and the multicore router. *)

module C = Runtime.Command
module E = Runtime.Engine
module R = Runtime.Router
module M = Runtime.Mc_router
module J = Runtime.Journal

let temp suffix =
  let p = Filename.temp_file "hfsc_journal_test" suffix in
  Sys.remove p;
  p

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rm path = try Sys.remove path with Sys_error _ -> ()

let rm_dir dir =
  (match Sys.readdir dir with
  | files -> Array.iter (fun f -> rm (Filename.concat dir f)) files
  | exception Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let parse_script script =
  match C.parse_script script with
  | Ok cmds -> cmds
  | Error { C.line; reason } ->
      Alcotest.failf "test script line %d: %s" line reason

let exec_strict ~what exec cmds =
  List.iter
    (fun (at, cmd) ->
      match exec ~now:at cmd with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "%s refused %s: %s" what
            (Format.asprintf "%a" C.pp cmd)
            (E.error_message e))
    cmds

(* the exact payload the writer frames; [J.read_file] must invert it *)
let render ~now cmd = Format.asprintf "at %a %a" C.pp_float now C.pp cmd

let cmd_list =
  Alcotest.testable
    (fun ppf cmds ->
      List.iter
        (fun (t, c) -> Format.fprintf ppf "at %a %a@." C.pp_float t C.pp c)
        cmds)
    ( = )

(* --- framing round-trip ----------------------------------------------- *)

let checkpoint_cmds =
  parse_script
    {|
link add west rate 10Mbit
link west add class voice parent root flow 1 rsc umax 160 dmax 5ms rate 64Kbit fsc 64Kbit qlimit 64
link west limit pkts 1000 policy tail
|}

let tail_cmds =
  parse_script
    {|
at 1.5 link west add class data parent root flow 2 fsc 2Mbit qlimit 32
at 2.25 link west modify class data fsc 3Mbit
at 3.75 link west delete class voice
|}

let test_writer_roundtrip () =
  let dir = temp ".state" in
  let w =
    J.start ~dir ~generation:0 ~checkpoint:checkpoint_cmds ~digest:"cafe01"
  in
  List.iter (fun (now, cmd) -> J.append w ~now cmd) tail_cmds;
  Alcotest.(check int) "appended counts" (List.length tail_cmds) (J.appended w);
  Alcotest.(check int) "generation" 0 (J.generation w);
  J.close w;
  (* a closed journal loses nothing: every appended command reads back *)
  (match J.read_file (Filename.concat dir "journal.0") with
  | Error c -> Alcotest.failf "journal unreadable: %s" (J.corruption_text c)
  | Ok r ->
      Alcotest.check cmd_list "journal tail round-trips" tail_cmds r.J.j_commands;
      Alcotest.(check bool) "clean close is not truncated" false r.J.j_truncated);
  Alcotest.(check (option string))
    "checkpoint digest reads back" (Some "cafe01")
    (J.read_digest (Filename.concat dir "checkpoint.0"));
  (match J.recover ~dir with
  | Error c -> Alcotest.failf "recover: %s" (J.corruption_text c)
  | Ok r ->
      Alcotest.(check int) "recovered generation" 0 r.J.r_generation;
      Alcotest.check cmd_list "recovered checkpoint" checkpoint_cmds
        r.J.r_checkpoint;
      Alcotest.(check (option string)) "recovered digest" (Some "cafe01")
        r.J.r_digest;
      Alcotest.check cmd_list "recovered tail" tail_cmds r.J.r_tail;
      Alcotest.(check bool) "not truncated" false r.J.r_truncated);
  rm_dir dir

let test_rotation () =
  let dir = temp ".state" in
  let w = J.start ~dir ~generation:3 ~checkpoint:[] ~digest:"aa" in
  List.iter (fun (now, cmd) -> J.append w ~now cmd) tail_cmds;
  J.rotate w ~checkpoint:checkpoint_cmds ~digest:"bb";
  Alcotest.(check int) "rotation bumps the generation" 4 (J.generation w);
  Alcotest.(check int) "rotation resets the append count" 0 (J.appended w);
  Alcotest.(check bool)
    "older generation deleted" false
    (Sys.file_exists (Filename.concat dir "checkpoint.3"));
  let now, cmd = List.hd tail_cmds in
  J.append w ~now cmd;
  J.close w;
  (match J.recover ~dir with
  | Error c -> Alcotest.failf "recover: %s" (J.corruption_text c)
  | Ok r ->
      Alcotest.(check int) "recovers the rotated generation" 4 r.J.r_generation;
      Alcotest.check cmd_list "rotated checkpoint" checkpoint_cmds
        r.J.r_checkpoint;
      Alcotest.check cmd_list "post-rotation tail" [ (now, cmd) ] r.J.r_tail);
  rm_dir dir

(* --- the truncation sweep --------------------------------------------- *)

(* Record boundaries of a journal holding [cmds]: byte offsets at which
   the file is a complete record sequence. Mirrors the on-disk layout:
   16-byte header, then 8-byte frame + payload per record. *)
let boundaries cmds =
  let b = ref [ 16 ] in
  let off = ref 16 in
  List.iter
    (fun (now, cmd) ->
      off := !off + 8 + String.length (render ~now cmd);
      b := !off :: !b)
    cmds;
  List.rev !b

let test_truncation_sweep () =
  let dir = temp ".state" in
  let w = J.start ~dir ~generation:0 ~checkpoint:[] ~digest:"dd" in
  List.iter (fun (now, cmd) -> J.append w ~now cmd) tail_cmds;
  J.close w;
  let journal = Filename.concat dir "journal.0" in
  let blob = read_bytes journal in
  let bounds = boundaries tail_cmds in
  Alcotest.(check int)
    "layout model matches the writer" (String.length blob)
    (List.nth bounds (List.length bounds - 1));
  let tmp = temp ".journal" in
  for cut = 0 to String.length blob do
    write_file tmp (String.sub blob 0 cut);
    match J.read_file tmp with
    | Error c ->
        Alcotest.failf "cut at %d bytes: typed corruption (%s), want clean \
                        truncation" cut (J.corruption_text c)
    | Ok r ->
        let complete =
          List.length (List.filter (fun b -> b <= cut && b > 16) bounds)
        in
        let expect = List.filteri (fun i _ -> i < complete) tail_cmds in
        Alcotest.check cmd_list
          (Printf.sprintf "cut at %d: exactly the complete records" cut)
          expect r.J.j_commands;
        Alcotest.(check bool)
          (Printf.sprintf "cut at %d: truncation flag" cut)
          (not (List.mem cut bounds))
          r.J.j_truncated
  done;
  rm tmp;
  rm_dir dir

(* the same sweep through [recover]: SIGKILL tearing the live journal at
   any byte must still recover checkpoint + every complete tail record *)
let test_recover_sweep () =
  let dir = temp ".state" in
  let w =
    J.start ~dir ~generation:2 ~checkpoint:checkpoint_cmds ~digest:"ee"
  in
  List.iter (fun (now, cmd) -> J.append w ~now cmd) tail_cmds;
  J.close w;
  let journal = Filename.concat dir "journal.2" in
  let blob = read_bytes journal in
  let bounds = boundaries tail_cmds in
  for cut = 0 to String.length blob do
    write_file journal (String.sub blob 0 cut);
    match J.recover ~dir with
    | Error c ->
        Alcotest.failf "cut at %d: recovery refused: %s" cut
          (J.corruption_text c)
    | Ok r ->
        Alcotest.(check int)
          (Printf.sprintf "cut at %d: generation" cut)
          2 r.J.r_generation;
        Alcotest.check cmd_list
          (Printf.sprintf "cut at %d: checkpoint intact" cut)
          checkpoint_cmds r.J.r_checkpoint;
        let complete =
          List.length (List.filter (fun b -> b <= cut && b > 16) bounds)
        in
        Alcotest.check cmd_list
          (Printf.sprintf "cut at %d: tail = complete records" cut)
          (List.filteri (fun i _ -> i < complete) tail_cmds)
          r.J.r_tail
  done;
  rm_dir dir

(* --- the corruption matrix -------------------------------------------- *)

let le32 v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 v;
  Bytes.to_string b

let header magic = magic ^ le32 (Int32.of_int 1) ^ le32 0l

let good_frame payload = le32 (Int32.of_int (String.length payload)) ^ le32 (J.crc32 payload) ^ payload

let check_corrupt name blob check =
  let tmp = temp ".journal" in
  write_file tmp blob;
  (match J.read_file tmp with
  | Ok _ -> Alcotest.failf "%s: damage read as success" name
  | Error c ->
      if not (check c) then
        Alcotest.failf "%s: wrong corruption: %s" name (J.corruption_text c);
      Alcotest.(check bool)
        (name ^ ": corruption_text is non-empty") true
        (String.length (J.corruption_text c) > 0));
  rm tmp

let test_corruption_matrix () =
  let rec1 = good_frame "at 1 link add a rate 1Mbit" in
  let rec2 = good_frame "at 2 link delete a" in
  check_corrupt "bad magic"
    ("NOTAJRNL" ^ le32 1l ^ le32 0l ^ rec1)
    (function J.Bad_magic -> true | _ -> false);
  check_corrupt "bad version"
    ("HFSCJRNL" ^ le32 99l ^ le32 0l ^ rec1)
    (function J.Bad_version 99 -> true | _ -> false);
  check_corrupt "absurd length"
    (header "HFSCJRNL" ^ le32 0x7fffffl ^ le32 0l ^ "xx")
    (function
      | J.Bad_length { index = 0; length = 0x7fffff } -> true | _ -> false);
  (* full bytes present, CRC wrong: damage, not truncation — and the
     index names the damaged record, not the file start *)
  let bad_crc p = le32 (Int32.of_int (String.length p)) ^ le32 0xdeadbeefl ^ p in
  check_corrupt "crc mismatch mid-stream"
    (header "HFSCJRNL" ^ rec1 ^ bad_crc "at 2 link delete a" ^ rec2)
    (function J.Bad_crc 1 -> true | _ -> false);
  (* intact framing around text that is not a command *)
  check_corrupt "unparseable payload"
    (header "HFSCJRNL" ^ rec1 ^ good_frame "frobnicate the widget")
    (function J.Bad_payload { index = 1; _ } -> true | _ -> false)

(* --- CRC-32 --------------------------------------------------------------- *)

(* The standard check vectors, then a table-free reference: one bit at a
   time through the reflected polynomial, the definition itself. *)
let test_crc_vectors () =
  Alcotest.(check int32) "empty" 0l (J.crc32 "");
  Alcotest.(check int32) "123456789" 0xCBF43926l (J.crc32 "123456789")

let crc32_bitwise s =
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c := Int32.logxor !c (Int32.of_int (Char.code ch));
      for _ = 1 to 8 do
        let lsb = Int32.logand !c 1l in
        c := Int32.shift_right_logical !c 1;
        if lsb <> 0l then c := Int32.logxor !c 0xEDB88320l
      done)
    s;
  Int32.lognot !c

let crc_matches_bitwise =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"crc32 = bitwise reference"
       ~print:(Printf.sprintf "%S")
       QCheck2.Gen.(string_size ~gen:char (int_range 0 300))
       (fun s -> J.crc32 s = crc32_bitwise s))

(* --- generation selection --------------------------------------------- *)

let test_checkpoint_fallback () =
  let dir = temp ".state" in
  let w =
    J.start ~dir ~generation:0 ~checkpoint:checkpoint_cmds ~digest:"f0"
  in
  J.close w;
  (* a corrupt NEWEST checkpoint falls back to the intact older one *)
  write_file (Filename.concat dir "checkpoint.1") "NOTACKPT garbage";
  (match J.recover ~dir with
  | Error c -> Alcotest.failf "fallback refused: %s" (J.corruption_text c)
  | Ok r ->
      Alcotest.(check int) "fell back to generation 0" 0 r.J.r_generation;
      Alcotest.check cmd_list "older checkpoint served" checkpoint_cmds
        r.J.r_checkpoint);
  (* but a corrupt JOURNAL of the selected generation is an error:
     falling back would silently drop acknowledged commands *)
  rm (Filename.concat dir "checkpoint.1");
  let w = J.start ~dir ~generation:0 ~checkpoint:checkpoint_cmds ~digest:"f0" in
  List.iter (fun (now, cmd) -> J.append w ~now cmd) tail_cmds;
  J.close w;
  let jpath = Filename.concat dir "journal.0" in
  let jblob = Bytes.of_string (read_bytes jpath) in
  (* flip one payload byte of the first record *)
  Bytes.set jblob 30 'Z';
  write_file jpath (Bytes.to_string jblob);
  (match J.recover ~dir with
  | Ok _ -> Alcotest.fail "mid-journal damage must refuse recovery"
  | Error _ -> ());
  rm_dir dir

let test_empty_and_missing () =
  (match J.recover ~dir:"/nonexistent/hfsc/state" with
  | Ok r ->
      Alcotest.(check int) "missing dir is the empty state" (-1)
        r.J.r_generation
  | Error c -> Alcotest.failf "missing dir: %s" (J.corruption_text c));
  let dir = temp ".state" in
  Unix.mkdir dir 0o755;
  (match J.recover ~dir with
  | Ok r -> Alcotest.(check int) "empty dir" (-1) r.J.r_generation
  | Error c -> Alcotest.failf "empty dir: %s" (J.corruption_text c));
  (* crash between checkpoint rename and journal creation *)
  let w = J.start ~dir ~generation:5 ~checkpoint:checkpoint_cmds ~digest:"aa" in
  J.close w;
  rm (Filename.concat dir "journal.5");
  (match J.recover ~dir with
  | Ok r ->
      Alcotest.(check int) "checkpoint without journal" 5 r.J.r_generation;
      Alcotest.check cmd_list "empty tail" [] r.J.r_tail
  | Error c -> Alcotest.failf "no-journal recovery: %s" (J.corruption_text c));
  rm_dir dir

(* --- journal round-trip property -------------------------------------- *)

(* The full pp/parse round trip is QCheck-pinned in test_runtime; what
   the journal adds is the frame and the [at TIME] render, so the
   property here stresses times (the grammar's %h/%.17g float path)
   against a pool of representative commands. *)
let journal_roundtrip =
  let pool =
    parse_script
      {|
link add a rate 1Mbit
link a add class x parent root flow 7 fsc 8Kbit qlimit 32
link a modify class x fsc 16Kbit
link a attach filter flow 7 src 10.0.0.0/8 proto udp dport 53 53
link a limit pkts 500 bytes none policy longest
link a delete class x
link delete a
|}
    |> List.map snd
  in
  let module G = QCheck2.Gen in
  let entry_gen =
    G.pair
      (G.oneof
         [
           G.return 0.;
           G.float_range 1e-9 1e9;
           G.map (fun f -> Float.of_int f *. 0.1) (G.int_range 0 10_000);
         ])
      (G.oneofl pool)
  in
  let gen = G.list_size (G.int_range 0 40) entry_gen in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"append+close+read_file inverts exactly (times bit-exact)"
       ~print:(fun entries ->
         String.concat "\n"
           (List.map (fun (t, c) -> render ~now:t c) entries))
       gen
       (fun entries ->
         let dir = temp ".state" in
         let w = J.start ~dir ~generation:0 ~checkpoint:[] ~digest:"qq" in
         List.iter (fun (now, cmd) -> J.append w ~now cmd) entries;
         J.close w;
         let got = J.read_file (Filename.concat dir "journal.0") in
         rm_dir dir;
         match got with
         | Ok r -> (not r.J.j_truncated) && r.J.j_commands = entries
         | Error _ -> false))

(* --- checkpoint+replay differential ----------------------------------- *)

(* A configuration exercising the whole checkpoint surface: two links,
   rsc/fsc/usc curves, flow mappings, per-class queue limits, aggregate
   limits with a policy, and filters. *)
let device_script =
  {|
link add west rate 10Mbit
link add east rate 5Mbit
link west add class voice parent root flow 1 rsc umax 160 dmax 5ms rate 64Kbit fsc 64Kbit qlimit 16
link west add class agg parent root fsc 8Mbit ulimit 9Mbit
link west add class data parent agg flow 2 fsc 4Mbit qlimit 128 qbytes 200000
link west add class bulk parent agg flow 3 fsc 2Mbit
link east add class edata parent root flow 10 fsc 3Mbit
link west attach filter flow 2 src 10.0.0.0/8 proto udp
link east attach filter flow 10 proto tcp dport 80 88
link west limit pkts 5000 bytes 4000000 policy longest
link east limit pkts none policy tail
|}

let build_router () =
  let r = R.create () in
  exec_strict ~what:"router setup" (R.exec r) (parse_script device_script);
  r

let test_replay_router () =
  let a = build_router () in
  let fresh = R.create () in
  exec_strict ~what:"checkpoint replay" (R.exec fresh) (R.checkpoint a);
  Alcotest.(check string)
    "replayed router is configuration-bit-identical"
    (R.config_fingerprint a) (R.config_fingerprint fresh)

let test_replay_engine () =
  let mk () =
    E.create ~link_rate:1.25e6 (Hfsc.create ~link_rate:1.25e6 ())
      ~flow_map:[] ()
  in
  let a = mk () in
  let ops =
    parse_script
      {|
add class voice parent root flow 1 rsc umax 160 dmax 5ms rate 64Kbit fsc 64Kbit qlimit 16
add class agg parent root fsc 800Kbit ulimit 1Mbit
add class data parent agg flow 2 fsc 400Kbit qbytes 99000
attach filter flow 2 proto udp
limit pkts 100 policy tail
|}
  in
  exec_strict ~what:"engine setup" (E.exec a) ops;
  let fresh = mk () in
  List.iter
    (fun op ->
      match E.exec fresh ~now:0. { C.target = C.Default_link; op } with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "engine replay: %s" (E.error_message e))
    (E.checkpoint_ops a);
  Alcotest.(check string)
    "replayed engine is configuration-bit-identical"
    (E.config_fingerprint a) (E.config_fingerprint fresh)

let test_replay_mc_router () =
  let m = M.create ~domains:2 () in
  exec_strict ~what:"mc setup" (M.exec m) (parse_script device_script);
  let cp = M.checkpoint m in
  let mc_fp = M.config_fingerprint m in
  ignore (M.stop m);
  (* the multicore checkpoint replays into a *sequential* router and
     lands on the same fingerprint: backends are interchangeable *)
  let fresh = R.create () in
  exec_strict ~what:"mc checkpoint replay" (R.exec fresh) cp;
  Alcotest.(check string)
    "mc checkpoint replays to the same configuration" mc_fp
    (R.config_fingerprint fresh);
  Alcotest.(check string)
    "mc fingerprint equals the sequential router's" mc_fp
    (R.config_fingerprint (build_router ()))

(* a heterogeneous device — one hfsc link, one rr link — checkpoints
   and recovers like any other: the rr link's backend choice and
   quanta survive the round trip, through memory and through disk *)
let mixed_device_script =
  {|
link add west rate 10Mbit
link add fast rate 1Gbit backend rr
link west add class voice parent root flow 1 rsc umax 160 dmax 5ms rate 64Kbit fsc 64Kbit qlimit 16
link west add class data parent root flow 2 fsc 4Mbit
link fast add class agg parent root quantum 9000
link fast add class a parent agg flow 20 quantum 6000 qlimit 256
link fast add class b parent agg flow 21 quantum 3000 qbytes 500000
link fast attach filter flow 20 proto udp
link fast limit pkts 10000 policy tail
|}

let test_replay_mixed_backends () =
  let a = R.create () in
  exec_strict ~what:"mixed setup" (R.exec a) (parse_script mixed_device_script);
  let fp = R.config_fingerprint a in
  (* the digest covers the rr link's quanta: a live quantum change
     moves the fingerprint, restoring it moves it back *)
  exec_strict ~what:"quantum wiggle" (R.exec a)
    (parse_script "link fast modify class a quantum 7000");
  Alcotest.(check bool) "quantum feeds the fingerprint" false
    (R.config_fingerprint a = fp);
  exec_strict ~what:"quantum restore" (R.exec a)
    (parse_script "link fast modify class a quantum 6000");
  Alcotest.(check string) "restoring the quantum restores it" fp
    (R.config_fingerprint a);
  let fresh = R.create () in
  exec_strict ~what:"mixed replay" (R.exec fresh) (R.checkpoint a);
  Alcotest.(check string) "mixed checkpoint replays bit-identically" fp
    (R.config_fingerprint fresh);
  (* and through journal files on disk *)
  let dir = temp ".state" in
  let w = J.start ~dir ~generation:0 ~checkpoint:(R.checkpoint a) ~digest:fp in
  let extra =
    parse_script
      "at 4 link fast modify class b quantum 4500\n\
       at 5 link west delete class data"
  in
  exec_strict ~what:"mixed tail" (R.exec a) extra;
  List.iter (fun (now, cmd) -> J.append w ~now cmd) extra;
  J.close w;
  (match J.recover ~dir with
  | Error c -> Alcotest.failf "recover: %s" (J.corruption_text c)
  | Ok r ->
      let rec2 = R.create () in
      exec_strict ~what:"mixed disk checkpoint" (R.exec rec2) r.J.r_checkpoint;
      Alcotest.(check (option string)) "digest verifies" (Some fp)
        (Option.map (fun _ -> R.config_fingerprint rec2) r.J.r_digest);
      exec_strict ~what:"mixed disk tail" (R.exec rec2) r.J.r_tail;
      Alcotest.(check string)
        "mixed checkpoint + tail lands on the live state"
        (R.config_fingerprint a) (R.config_fingerprint rec2));
  rm_dir dir

(* --- golden durable bytes ------------------------------------------------ *)

(* One fixed device touching every part of the durable format: every
   op kind, linear and two-piece rsc/fsc/ulimit curves with non-integer
   rates and a [d] only %.17g spells exactly, per-class and aggregate
   limits ([none] and numeric, both policies), flows, a filter with
   every field, and an rr link with quanta. The pinned values are the
   bytes older binaries wrote: the fingerprint is compared at recovery
   with digests already on disk, and the checkpoint and journal must
   stay readable as they are. *)
let golden_script =
  {|
link add west rate 10Mbit
link add fast rate 1Gbit backend rr
link add spare rate 2.5Mbit
link west add class voice parent root flow 1 rsc m1 160000.5Bps d 0.0033333333333333335s m2 8000.25Bps fsc 64Kbit qlimit 16
link west add class agg parent root fsc m1 900000Bps d 12ms m2 800000.125Bps ulimit m1 1200000Bps d 0.1s m2 1000000.75Bps
link west add class data parent agg flow 2 fsc 333333.33333333331Bps qlimit 128 qbytes 200000
link west add class bulk parent agg flow 3 fsc 2Mbit ulimit 2.5Mbit
link west add class temp parent agg flow 4 rsc 1Kbit
link west modify class bulk fsc 1.5Mbit qlimit 77
link west modify class data rsc m1 0Bps d 7.5ms m2 12345.678Bps qbytes 250000
link west delete class temp
link spare add class lone parent root flow 30 rsc umax 1500 dmax 20ms rate 100KBps
link fast add class grp parent root quantum 9000
link fast add class a parent grp flow 20 quantum 6000 qlimit 256
link fast add class b parent grp flow 21 quantum 3000 qbytes 500000
link fast modify class b quantum 4500
link west attach filter flow 2 src 10.0.0.0/8 dst 192.168.1.0/24 proto udp sport 1000 2000 dport 53 53
link west attach filter flow 3 proto 47
link west attach filter flow 1 proto icmp
link fast attach filter flow 20 proto tcp
link fast attach filter flow 21 proto udp
link fast detach filter flow 21
link west limit pkts 5000 bytes none policy longest
link fast limit pkts none bytes 4000000 policy tail
link spare limit pkts 100
link add gone rate 1Mbit
link delete gone
link west stats
link west stats voice
link west trace on
link west trace off
link west trace dump
link list
|}

let md5_file path = Digest.to_hex (Digest.file path)

let test_golden_bytes () =
  let cmds = parse_script golden_script in
  let r = R.create () in
  exec_strict ~what:"golden device" (R.exec r) cmds;
  let fp = R.config_fingerprint r in
  Alcotest.(check string) "config fingerprint"
    "0fe3a267d13647d5ae77cc282d9afbd4" fp;
  let dir = temp ".state" in
  let w = J.start ~dir ~generation:0 ~checkpoint:(R.checkpoint r) ~digest:fp in
  let times = [| 0.1; 1. /. 3.; 1e-7; 12345678.9; 0.; 2.5e-310; 86400. |] in
  List.iteri
    (fun i (_, cmd) -> J.append w ~now:times.(i mod Array.length times) cmd)
    cmds;
  J.close w;
  Alcotest.(check string) "checkpoint.0 bytes" "d3aef603497e505b699e8367597b9696"
    (md5_file (Filename.concat dir "checkpoint.0"));
  Alcotest.(check string) "journal.0 bytes" "c3da87bdc487191aab0e26da0c57427e"
    (md5_file (Filename.concat dir "journal.0"));
  rm_dir dir

(* through the disk: checkpoint → Journal files → recover → replay →
   the recorded digest verifies *)
let test_replay_through_disk () =
  let a = build_router () in
  let dir = temp ".state" in
  let w =
    J.start ~dir ~generation:0 ~checkpoint:(R.checkpoint a)
      ~digest:(R.config_fingerprint a)
  in
  let extra = parse_script "at 9 link west delete class bulk" in
  exec_strict ~what:"live tail" (R.exec a) extra;
  List.iter (fun (now, cmd) -> J.append w ~now cmd) extra;
  J.close w;
  (match J.recover ~dir with
  | Error c -> Alcotest.failf "recover: %s" (J.corruption_text c)
  | Ok r ->
      let fresh = R.create () in
      exec_strict ~what:"disk checkpoint" (R.exec fresh) r.J.r_checkpoint;
      (match r.J.r_digest with
      | Some d ->
          Alcotest.(check string) "digest verifies after checkpoint replay" d
            (R.config_fingerprint fresh)
      | None -> Alcotest.fail "checkpoint lost its digest");
      exec_strict ~what:"disk tail" (R.exec fresh) r.J.r_tail;
      Alcotest.(check string)
        "checkpoint + tail lands on the live state"
        (R.config_fingerprint a) (R.config_fingerprint fresh));
  rm_dir dir

let () =
  Alcotest.run "journal"
    [
      ( "framing",
        [
          Alcotest.test_case "writer round-trip, digest, recovery" `Quick
            test_writer_roundtrip;
          Alcotest.test_case "rotation" `Quick test_rotation;
          Alcotest.test_case "golden durable bytes" `Quick test_golden_bytes;
          Alcotest.test_case "crc32 check vectors" `Quick test_crc_vectors;
          crc_matches_bitwise;
          journal_roundtrip;
        ] );
      ( "crash",
        [
          Alcotest.test_case "truncation sweep: every byte offset" `Quick
            test_truncation_sweep;
          Alcotest.test_case "recover sweep: every byte offset" `Quick
            test_recover_sweep;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "typed corruption matrix" `Quick
            test_corruption_matrix;
          Alcotest.test_case "checkpoint falls back, journal does not" `Quick
            test_checkpoint_fallback;
          Alcotest.test_case "missing and partial directories" `Quick
            test_empty_and_missing;
        ] );
      ( "replay",
        [
          Alcotest.test_case "engine checkpoint replays bit-identically"
            `Quick test_replay_engine;
          Alcotest.test_case "router checkpoint replays bit-identically"
            `Quick test_replay_router;
          Alcotest.test_case "mc-router checkpoint replays bit-identically"
            `Quick test_replay_mc_router;
          Alcotest.test_case "checkpoint+journal through the disk" `Quick
            test_replay_through_disk;
          Alcotest.test_case "mixed hfsc+rr device round-trips" `Quick
            test_replay_mixed_backends;
        ] );
    ]
