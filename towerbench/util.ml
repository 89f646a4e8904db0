(* Clocks, sample buffers, order statistics and the fork-per-repetition
   process helper shared by every workload. *)

(* Monotonic nanoseconds. The external is [@@noalloc] and unboxed, so a
   reading costs no allocation on the paths it times. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* A growable int buffer: latency samples in ns. *)
module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Array.unsafe_set t.a t.n v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Quantile [q] of [xs] by linear interpolation between order
   statistics (the definition Python's [statistics.quantiles] uses with
   method "inclusive"). *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Util.quantile: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then s.(n - 1)
  else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median xs = quantile xs 0.5

(* The median of integer nanosecond readings, interpolated within the
   1 ns bin that holds it (the grouped-data median): a call that takes
   about 255 ns would otherwise report exactly 255 on most runs. *)
let median_ns xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Util.median_ns: no samples";
  let s = Array.copy xs in
  Array.sort compare s;
  let v = s.(n / 2) in
  let below = ref 0 and at = ref 0 in
  Array.iter (fun x -> if x < v then incr below else if x = v then incr at) s;
  float_of_int v -. 0.5 +. ((float_of_int n /. 2. -. float_of_int !below) /. float_of_int !at)

let ns_to_us xs = Array.map (fun v -> float_of_int v *. 1e-3) xs
let sum = Array.fold_left ( + ) 0

let mean_ns ~total ~count =
  if count = 0 then 0. else float_of_int total /. float_of_int count

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* Each item's fastest reading over the repetitions, where an item is a
   unit of work that is identical in every repetition: a slice of
   simulated time, a request, a sampled call. *)
let fastest (reps : int array array) =
  let n = Array.length reps.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> n then
        fail "repetitions did different work (%d vs %d items)" (Array.length r) n)
    reps;
  Array.init n (fun j -> Array.fold_left (fun a r -> min a r.(j)) max_int reps)

(* 63-bit FNV-1a-style mixing: the departure and dequeue digests. *)
let mix h v = (h lxor v) * 0x100000001b3
let digest_init = 0x4bf29ce484222325

(* Pins the calling process, and every thread and process it starts
   later, to the CPU it is running on; returns that CPU, or -1 where
   pinning is unavailable. *)
external pin_to_current_cpu : unit -> int = "towerbench_pin_to_current_cpu" [@@noalloc]

(* Run [f] in a forked child and return its result, marshalled back over
   a pipe. Every measured repetition runs this way: the child starts
   from the parent's small heap, so one repetition's garbage never
   lands in the next one's numbers, and the child may spawn domains —
   OCaml 5 refuses [Unix.fork] in any process that ever created one, so
   the parent must stay domain-free to keep forking. The child writes
   nothing to stdout and leaves through [_exit], skipping the parent's
   at_exit handlers.

   The child pins itself to one CPU, so a hand-off between its threads
   (the multicore router's worker domain) or processes (the daemon and
   its client) is a context switch on a CPU that stays busy rather than
   the wake-up of an idle core. On a shared VM that wake-up goes through
   the hypervisor, and its latency changed by 2-3x from one run to the
   next. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      ignore (pin_to_current_cpu ());
      let r : ('a, string) result =
        try Ok (f ()) with
        | Failed m -> Error m
        | e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      (try
         Marshal.to_channel oc r [];
         flush oc
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r : ('a, string) result =
        try Marshal.from_channel ic
        with End_of_file | Failure _ -> Error "child exited without a result"
      in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      (match (r, status) with
      | Ok v, Unix.WEXITED 0 -> v
      | Error m, _ -> raise (Failed m)
      | Ok _, _ -> fail "child exited abnormally")

(* Per-run scratch space (state directories, sockets) under the
   benchmark's own directory, relative to the checkout root: a relative
   socket path stays far below the 108-byte sun_path limit however deep
   the checkout sits. *)
let scratch_root = Filename.concat "towerbench" "_run"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let counter = ref 0

(* A fresh empty directory; [with_scratch] removes it afterwards. *)
let with_scratch tag f =
  if not (Sys.file_exists scratch_root) then begin
    (try Unix.mkdir "towerbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    try Unix.mkdir scratch_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end;
  incr counter;
  let dir =
    Filename.concat scratch_root
      (Printf.sprintf "%d-%d-%s" (Unix.getpid ()) !counter tag)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () -> f dir)
