(* Framed binary spill of the telemetry event ring. See the .mli for
   the on-disk layout; everything here is little-endian and fixed
   width, so a record is decodable by seeking — no parsing state. *)

let magic = "HFSCTRCE"
let schema_version = 1
let record_size = 32
let header_size = 24

let encode_header () =
  let b = Bytes.create header_size in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int32_le b 8 (Int32.of_int schema_version);
  Bytes.set_int32_le b 12 (Int32.of_int record_size);
  Bytes.set_int64_le b 16 0L;
  b

(* One record into [buf] at [off]. The int columns of the ring are
   non-negative and fit their fields by construction (sizes and ids are
   small; seq gets the full 64 bits). *)
let encode buf off ~ts ~kind ~cls ~flow ~size ~seq =
  Bytes.set_int64_le buf off (Int64.bits_of_float ts);
  Bytes.set_int64_le buf (off + 8) (Int64.of_int seq);
  Bytes.set_int32_le buf (off + 16) (Int32.of_int cls);
  Bytes.set_int32_le buf (off + 20) (Int32.of_int flow);
  Bytes.set_int32_le buf (off + 24) (Int32.of_int size);
  Bytes.set_uint16_le buf (off + 28) kind;
  Bytes.set_uint16_le buf (off + 30) 0

let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

let decode buf off : (Telemetry.event, string) result =
  let kind_code = Bytes.get_uint16_le buf (off + 28) in
  match Telemetry.kind_of_code kind_code with
  | None -> Error (Printf.sprintf "corrupt kind code %d" kind_code)
  | Some kind ->
      Ok
        {
          Telemetry.ts = Int64.float_of_bits (Bytes.get_int64_le buf off);
          kind;
          cls_id = u32 buf (off + 16);
          flow = u32 buf (off + 20);
          size = u32 buf (off + 24);
          seq = Int64.to_int (Bytes.get_int64_le buf (off + 8));
        }

(* --- the sink -------------------------------------------------------- *)

module Sink = struct
  type t = {
    s_path : string;
    oc : out_channel;
    buf : Bytes.t; (* buffer_records * record_size staging area *)
    mutable fill : int; (* records currently staged *)
    mutable cursor : int; (* next ring index to spill *)
    mutable written : int;
    mutable lost : int;
    mutable closed : bool;
  }

  (* records the staging buffer holds *)
  let buffer_records = 512

  let create ~path () =
    let oc = open_out_bin path in
    output_bytes oc (encode_header ());
    {
      s_path = path;
      oc;
      buf = Bytes.create (buffer_records * record_size);
      fill = 0;
      cursor = 0;
      written = 0;
      lost = 0;
      closed = false;
    }

  let path t = t.s_path

  let flush_buf t =
    if t.fill > 0 then begin
      output t.oc t.buf 0 (t.fill * record_size);
      t.fill <- 0
    end

  let put t ~ts ~kind ~cls ~flow ~size ~seq =
    if t.fill = buffer_records then flush_buf t;
    encode t.buf (t.fill * record_size) ~ts ~kind ~cls ~flow ~size ~seq;
    t.fill <- t.fill + 1;
    t.written <- t.written + 1

  let note_lost t ~window_start =
    if window_start > t.cursor then begin
      t.lost <- t.lost + (window_start - t.cursor);
      t.cursor <- window_start
    end

  let drain t tele =
    let before = t.written in
    note_lost t
      ~window_start:
        (Telemetry.recorded_total tele - Telemetry.trace_capacity tele);
    t.cursor <-
      Telemetry.iter_since tele ~since:t.cursor ~f:(fun ~ts ~kind ~cls ~flow
                                                       ~size ~seq ->
          put t ~ts ~kind ~cls ~flow ~size ~seq);
    t.written - before

  let written t = t.written
  let lost t = t.lost

  let close t =
    if not t.closed then begin
      t.closed <- true;
      (* the file is closed even when the flush fails *)
      Fun.protect ~finally:(fun () -> close_out_noerr t.oc) (fun () ->
          flush_buf t;
          close_out t.oc)
    end
end

(* --- the reader ------------------------------------------------------ *)

type header = { version : int; rec_size : int }

let read_header ic : (header, string) result =
  let b = Bytes.create header_size in
  match really_input ic b 0 header_size with
  | exception End_of_file -> Error "truncated header"
  | () ->
      if Bytes.sub_string b 0 8 <> magic then Error "bad magic (not a trace)"
      else
        let version = u32 b 8 in
        let rec_size = u32 b 12 in
        if version <> schema_version then
          Error
            (Printf.sprintf "unsupported schema version %d (this reader: %d)"
               version schema_version)
        else if rec_size <> record_size then
          Error
            (Printf.sprintf "unsupported record size %d (this reader: %d)"
               rec_size record_size)
        else Ok { version; rec_size }

let with_file path f =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let fold_file path ~init ~f =
  with_file path (fun ic ->
      match read_header ic with
      | Error e -> Error e
      | Ok h ->
          let buf = Bytes.create h.rec_size in
          let rec go acc i =
            match really_input ic buf 0 h.rec_size with
            | exception End_of_file ->
                (* distinguish clean EOF from a torn tail *)
                if in_channel_length ic - header_size - (i * h.rec_size) = 0
                then Ok acc
                else Error (Printf.sprintf "truncated record %d" i)
            | () -> (
                match decode buf 0 with
                | Error e -> Error (Printf.sprintf "record %d: %s" i e)
                | Ok e -> go (f acc e) (i + 1))
          in
          go init 0)

let read_file path =
  match
    with_file path (fun ic ->
        match read_header ic with Error e -> Error e | Ok h -> Ok h)
  with
  | Error e -> Error e
  | Ok h -> (
      match fold_file path ~init:[] ~f:(fun acc e -> e :: acc) with
      | Error e -> Error e
      | Ok rev -> Ok (h, List.rev rev))

(* --- the delay histogram --------------------------------------------- *)

module Histogram = struct
  (* the upper edge of bucket 0 (1 us), and the bucket count *)
  let floor = 1e-6
  let nb = 32

  type t = {
    rt : int array;
    ls : int array;
    pending : (int * int, float) Hashtbl.t; (* (flow, seq) -> enqueue ts *)
    mutable samples : int;
    mutable unmatched : int;
    mutable max_delay : float;
  }

  let create () =
    {
      rt = Array.make nb 0;
      ls = Array.make nb 0;
      pending = Hashtbl.create 256;
      samples = 0;
      unmatched = 0;
      max_delay = 0.;
    }

  (* bucket 0: [0, floor); bucket i: [floor*2^(i-1), floor*2^i); the
     last bucket absorbs the rest *)
  let bucket_of d =
    if d < floor then 0
    else
      let rec go i lo = if i >= nb - 1 || d < lo *. 2. then i else go (i + 1) (lo *. 2.) in
      go 1 floor

  let observe t ~rt d =
    let d = Float.max d 0. in
    let i = bucket_of d in
    if rt then t.rt.(i) <- t.rt.(i) + 1 else t.ls.(i) <- t.ls.(i) + 1;
    t.samples <- t.samples + 1;
    if d > t.max_delay then t.max_delay <- d

  let feed_event t (e : Telemetry.event) =
    let key = (e.Telemetry.flow, e.Telemetry.seq) in
    match e.Telemetry.kind with
    | Telemetry.Enq -> Hashtbl.replace t.pending key e.Telemetry.ts
    | Telemetry.Drop -> Hashtbl.remove t.pending key
    | Telemetry.Deq_rt | Telemetry.Deq_ls -> (
        let rt = e.Telemetry.kind = Telemetry.Deq_rt in
        match Hashtbl.find_opt t.pending key with
        | Some t0 ->
            Hashtbl.remove t.pending key;
            observe t ~rt (e.Telemetry.ts -. t0)
        | None -> t.unmatched <- t.unmatched + 1)

  let feed t evs = List.iter (feed_event t) evs

  let feed_file t path =
    fold_file path ~init:() ~f:(fun () e -> feed_event t e)

  let samples t = t.samples
  let unmatched t = t.unmatched
  let max_delay t = t.max_delay

  let edges i =
    if i = 0 then (0., floor)
    else
      let lo = floor *. Float.of_int (1 lsl (i - 1)) in
      (lo, if i = nb - 1 then Float.infinity else lo *. 2.)

  let buckets t =
    Array.init nb (fun i ->
        let lo, hi = edges i in
        (lo, hi, t.rt.(i), t.ls.(i)))

  let to_text t =
    let b = Buffer.create 512 in
    Printf.bprintf b "%-24s %10s %10s\n" "delay" "rt" "ls";
    Array.iteri
      (fun i r ->
        if r > 0 || t.ls.(i) > 0 then begin
          let lo, hi = edges i in
          let pp v =
            if v = Float.infinity then "inf"
            else if v >= 1. then Printf.sprintf "%.3gs" v
            else if v >= 1e-3 then Printf.sprintf "%.3gms" (v *. 1e3)
            else Printf.sprintf "%.3gus" (v *. 1e6)
          in
          Printf.bprintf b "[%8s, %8s)        %10d %10d\n" (pp lo) (pp hi) r
            t.ls.(i)
        end)
      t.rt;
    Printf.bprintf b
      "%d sample%s, %d unmatched dequeue%s, max delay %.6f s\n" t.samples
      (if t.samples = 1 then "" else "s")
      t.unmatched
      (if t.unmatched = 1 then "" else "s")
      t.max_delay;
    Buffer.contents b
end
