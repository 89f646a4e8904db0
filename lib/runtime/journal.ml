(* Write-ahead command journal + generation-numbered checkpoints. See
   the .mli for the on-disk format; everything here is little-endian.
   Payloads are text lines in the Command grammar, so the whole
   durability story leans on one already-pinned invariant: parse∘pp
   round-trips every command. *)

let magic_journal = "HFSCJRNL"
let magic_checkpoint = "HFSCCKPT"
let schema_version = 1
let header_size = 16 (* 8 magic + u32 version + u32 reserved *)
let frame_size = 8 (* u32 payload length + u32 CRC *)

(* A command line is bounded by class/link name lengths; anything past
   this is a mangled length field, not a long command. *)
let max_payload = 65536

(* --- CRC-32 (IEEE 802.3, reflected; stdlib has none) ----------------- *)

(* On native ints: the register fits in 32 of the 63 bits, so the loop
   boxes nothing; only the result becomes an int32. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
      done;
      !c)

(* The index is masked to 0..255 and [i] stays inside [s], so the
   reads skip their bounds checks. *)
let crc32 s =
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c :=
      Array.unsafe_get crc_table
        ((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* --- reading --------------------------------------------------------- *)

type corruption =
  | Bad_magic
  | Bad_version of int
  | Bad_length of { index : int; length : int }
  | Bad_crc of int
  | Bad_payload of { index : int; reason : string }

let corruption_text = function
  | Bad_magic -> "bad magic (not a journal or checkpoint)"
  | Bad_version v ->
      Printf.sprintf "unsupported version %d (this reader: %d)" v
        schema_version
  | Bad_length { index; length } ->
      Printf.sprintf "record %d: absurd payload length %d" index length
  | Bad_crc i -> Printf.sprintf "record %d: payload fails its CRC" i
  | Bad_payload { index; reason } ->
      Printf.sprintf "record %d: %s" index reason

type read = {
  j_commands : (float * Command.t) list;
  j_records : int;
  j_truncated : bool;
}

let u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

let digest_prefix = "#digest "

(* Parse a whole file image. Damage strictly before the final record is
   typed corruption; an incomplete final record — down to a truncated
   file header — is a torn tail: everything before it is returned and
   [j_truncated] is set. *)
let parse_blob blob =
  let n = String.length blob in
  let truncated acc digest =
    Ok
      ( {
          j_commands = List.rev acc;
          j_records = List.length acc;
          j_truncated = true;
        },
        digest )
  in
  let header_prefix s =
    let is_prefix m = String.length s <= 8 && String.sub m 0 (String.length s) = s in
    is_prefix magic_journal || is_prefix magic_checkpoint
  in
  if n < 8 then
    if header_prefix blob then truncated [] None else Error Bad_magic
  else if
    let m = String.sub blob 0 8 in
    m <> magic_journal && m <> magic_checkpoint
  then Error Bad_magic
  else if n < header_size then truncated [] None
  else if u32 blob 8 <> schema_version then Error (Bad_version (u32 blob 8))
  else
    let rec go acc digest idx off =
      let remaining = n - off in
      if remaining = 0 then
        Ok
          ( {
              j_commands = List.rev acc;
              j_records = List.length acc;
              j_truncated = false;
            },
            digest )
      else if remaining < frame_size then truncated acc digest
      else
        let len = u32 blob off in
        if len > max_payload then Error (Bad_length { index = idx; length = len })
        else if remaining - frame_size < len then truncated acc digest
        else
          let payload = String.sub blob (off + frame_size) len in
          if String.get_int32_le blob (off + 4) <> crc32 payload then
            Error (Bad_crc idx)
          else
            let next = off + frame_size + len in
            if String.length payload > 0 && payload.[0] = '#' then
              (* comment record; the first one may carry the digest *)
              let digest =
                if
                  idx = 0 && digest = None
                  && String.length payload > String.length digest_prefix
                  && String.sub payload 0 (String.length digest_prefix)
                     = digest_prefix
                then
                  Some
                    (String.trim
                       (String.sub payload
                          (String.length digest_prefix)
                          (String.length payload - String.length digest_prefix)))
                else digest
              in
              go acc digest (idx + 1) next
            else
              match Command.parse_script payload with
              | Error e ->
                  Error (Bad_payload { index = idx; reason = e.Command.reason })
              | Ok cmds -> go (List.rev_append cmds acc) digest (idx + 1) next
    in
    go [] None 0 header_size

let read_blob path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_file path =
  match parse_blob (read_blob path) with
  | Error _ as e -> e
  | Ok (r, _) -> Ok r

let read_digest path =
  match parse_blob (read_blob path) with
  | Error _ -> None
  | Ok (_, digest) -> digest

(* --- recovery -------------------------------------------------------- *)

type recovery = {
  r_generation : int;
  r_checkpoint : (float * Command.t) list;
  r_digest : string option;
  r_tail : (float * Command.t) list;
  r_truncated : bool;
}

let empty_recovery =
  {
    r_generation = -1;
    r_checkpoint = [];
    r_digest = None;
    r_tail = [];
    r_truncated = false;
  }

let checkpoint_path dir gen = Filename.concat dir (Printf.sprintf "checkpoint.%d" gen)
let journal_path dir gen = Filename.concat dir (Printf.sprintf "journal.%d" gen)

let gen_of_name ~prefix name =
  let pl = String.length prefix in
  if String.length name > pl && String.sub name 0 pl = prefix then
    int_of_string_opt (String.sub name pl (String.length name - pl))
  else None

(* checkpoint generations present, newest first *)
let generations dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (gen_of_name ~prefix:"checkpoint.")
  |> List.sort (fun a b -> compare b a)

let recover ~dir =
  if not (Sys.file_exists dir) then Ok empty_recovery
  else
    (* Fall back generation by generation on a corrupt (or torn —
       impossible under the atomic rename, but we don't trust the disk)
       checkpoint; if every generation is bad, report the newest's
       corruption. Journal damage is NOT a fallback: the checkpoint it
       extends is older state, and silently serving it would drop
       acknowledged commands. *)
    let rec pick first_err = function
      | [] -> (
          match first_err with
          | Some e -> Error e
          | None -> Ok empty_recovery)
      | gen :: older -> (
          let keep_err e =
            Some (match first_err with Some e0 -> e0 | None -> e)
          in
          match parse_blob (read_blob (checkpoint_path dir gen)) with
          | exception Sys_error _ -> pick first_err older
          | Error e -> pick (keep_err e) older
          | Ok (ck, _) when ck.j_truncated ->
              pick
                (keep_err
                   (Bad_payload
                      { index = ck.j_records; reason = "checkpoint truncated" }))
                older
          | Ok (ck, digest) -> (
              let jp = journal_path dir gen in
              if not (Sys.file_exists jp) then
                (* crashed between checkpoint rename and journal open *)
                Ok
                  {
                    r_generation = gen;
                    r_checkpoint = ck.j_commands;
                    r_digest = digest;
                    r_tail = [];
                    r_truncated = false;
                  }
              else
                match read_file jp with
                | Error _ as e -> e
                | Ok jr ->
                    Ok
                      {
                        r_generation = gen;
                        r_checkpoint = ck.j_commands;
                        r_digest = digest;
                        r_tail = jr.j_commands;
                        r_truncated = jr.j_truncated;
                      }))
    in
    pick None (generations dir)

(* --- writing --------------------------------------------------------- *)

let rec write_all fd b off len =
  if len > 0 then
    let n =
      try Unix.write fd b off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd b (off + n) (len - n)

let add_header b magic =
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int schema_version);
  Buffer.add_int32_le b 0l

let add_frame b payload =
  let len = String.length payload in
  if len > max_payload then invalid_arg "Journal: payload too long";
  Buffer.add_int32_le b (Int32.of_int len);
  Buffer.add_int32_le b (crc32 payload);
  Buffer.add_string b payload

let render ~now cmd =
  let b = Buffer.create 96 in
  Buffer.add_string b "at ";
  Command.add_float b now;
  Buffer.add_char b ' ';
  Command.to_buffer b cmd;
  Buffer.contents b

let write_buffer fd b = write_all fd (Buffer.to_bytes b) 0 (Buffer.length b)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Directory-entry durability for the rename: without this, a power cut
   can forget checkpoint.<gen> exists while journal.<gen> survives. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* Returns the size of the committed file. *)
let write_checkpoint ~dir ~gen ~checkpoint ~digest =
  let tmp = Filename.concat dir (Printf.sprintf ".checkpoint.%d.tmp" gen) in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let size =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        (* the whole file in one buffer, handed to the OS in one write *)
        let b = Buffer.create 65536 in
        add_header b magic_checkpoint;
        add_frame b (digest_prefix ^ digest);
        List.iter (fun (now, cmd) -> add_frame b (render ~now cmd)) checkpoint;
        write_buffer fd b;
        Unix.fsync fd;
        Buffer.length b)
  in
  Sys.rename tmp (checkpoint_path dir gen);
  fsync_dir dir;
  size

let open_journal ~dir ~gen =
  let fd =
    Unix.openfile (journal_path dir gen)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let b = Buffer.create header_size in
  add_header b magic_journal;
  write_buffer fd b;
  fd

let delete_older ~dir ~gen =
  Array.iter
    (fun name ->
      let old prefix =
        match gen_of_name ~prefix name with
        | Some g when g < gen -> true
        | _ -> false
      in
      if old "checkpoint." || old "journal." then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Sys.readdir dir)

type writer = {
  w_dir : string;
  mutable w_gen : int;
  mutable w_fd : Unix.file_descr;
  mutable w_count : int;
  mutable w_bytes : int; (* frames appended to journal.<w_gen> *)
  mutable w_checkpoint_bytes : int; (* the whole of checkpoint.<w_gen> *)
  mutable w_closed : bool;
}

let start ~dir ~generation ~checkpoint ~digest =
  mkdir_p dir;
  let size = write_checkpoint ~dir ~gen:generation ~checkpoint ~digest in
  let fd = open_journal ~dir ~gen:generation in
  delete_older ~dir ~gen:generation;
  {
    w_dir = dir;
    w_gen = generation;
    w_fd = fd;
    w_count = 0;
    w_bytes = 0;
    w_checkpoint_bytes = size;
    w_closed = false;
  }

let append w ~now cmd =
  let b = Buffer.create 128 in
  add_frame b (render ~now cmd);
  write_buffer w.w_fd b;
  w.w_count <- w.w_count + 1;
  w.w_bytes <- w.w_bytes + Buffer.length b

let appended w = w.w_count

type footprint = { journal_bytes : int; checkpoint_bytes : int }

let footprint w =
  { journal_bytes = w.w_bytes; checkpoint_bytes = w.w_checkpoint_bytes }

let generation w = w.w_gen

let rotate w ~checkpoint ~digest =
  let gen = w.w_gen + 1 in
  let size = write_checkpoint ~dir:w.w_dir ~gen ~checkpoint ~digest in
  let fd = open_journal ~dir:w.w_dir ~gen in
  Unix.close w.w_fd;
  w.w_fd <- fd;
  w.w_gen <- gen;
  w.w_count <- 0;
  w.w_bytes <- 0;
  w.w_checkpoint_bytes <- size;
  delete_older ~dir:w.w_dir ~gen

let close w =
  if not w.w_closed then begin
    w.w_closed <- true;
    Unix.fsync w.w_fd;
    Unix.close w.w_fd
  end
