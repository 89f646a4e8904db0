(* The kill/restart crash soak, runtest-sized (see Experiments.Soak
   .run_crash for the contract). A plain executable, not an Alcotest
   suite: each cycle forks a daemon child, and fork must happen before
   this process ever spawns a domain — Alcotest and the other suites
   here spawn domains freely, so the crash soak keeps its own process.

     ./test_crash.exe [CYCLES [OPS]]

   Argument-less (the runtest/quick slice) it runs small and sub-second:
   2 cycles of 6 op rounds each. The @crash alias passes larger
   numbers. *)

let () =
  let arg n default =
    if Array.length Sys.argv > n then int_of_string Sys.argv.(n) else default
  in
  let cycles = arg 1 2 in
  let ops = arg 2 6 in
  match
    Experiments.Soak.run_crash ~links:2 ~cycles ~ops_per_cycle:ops ()
  with
  | Ok r ->
      assert (r.Experiments.Soak.cr_fingerprint = r.Experiments.Soak.cr_oracle);
      assert (r.Experiments.Soak.cr_kills = cycles - 1);
      assert (r.Experiments.Soak.cr_commands > 0);
      (* run_crash itself fails a churn cycle that never rotated *)
      assert (List.length r.Experiments.Soak.cr_rotations = cycles);
      Printf.printf "crash soak: OK — %s" (Experiments.Soak.crash_report_text r);
      print_endline "test_crash: the crash soak recovered bit-identically"
  | Error why ->
      Printf.printf "crash soak: FAILED: %s\n" why;
      exit 1
