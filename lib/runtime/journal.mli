(** Crash-safe persistence for the control plane: a write-ahead command
    journal plus generation-numbered checkpoints, both under one state
    directory.

    {b What is persisted.} Accepted {e mutating} commands only (the
    {!Command.is_mutating} set) and periodic checkpoints — a replayable
    script snapshotting links, classes, curves, queue and aggregate
    limits, and filters. In-flight packets, backlog, virtual times and
    telemetry are deliberately {e not} persisted: recovery restores the
    configuration the operator built, not the traffic passing through
    it (see DESIGN.md §15).

    {b On-disk format.} Each file opens with an 8-byte magic
    ([HFSCJRNL] for journals, [HFSCCKPT] for checkpoints), a
    little-endian [u32] version and a reserved [u32]. Every record is
    framed [Trace_log]-style — [u32] payload length, [u32] CRC-32 (IEEE)
    of the payload, then the payload — so a torn tail is detectable:
    a record cut short by a crash fails the length or CRC check and is
    discarded, never half-applied. Payloads are text lines in the
    {!Command} grammar ([at TIME link L ...]) whose parse∘pp round-trip
    is QCheck-pinned, so the journal is also human-readable
    ([strings FILE] shows the command history). A checkpoint's first
    record is a [#digest HEX] comment carrying the engine configuration
    fingerprint at capture time, verified after replay.

    {b Generations.} A checkpoint and its tail journal share a
    generation number: [checkpoint.<gen>] is written atomically
    (temp file, fsync, rename, directory fsync) and subsequent commands
    append to [journal.<gen>]. Recovery picks the highest generation
    whose checkpoint is intact — a corrupt newest checkpoint falls back
    to the previous generation rather than refusing service — then
    replays that generation's journal up to its last complete record. *)

(** Why a file (or a prefix of one) cannot be trusted. A torn {e tail}
    is not corruption — crashes legitimately truncate the last record,
    and reads report it via [j_truncated] — but damage {e inside} the
    stream is typed here. *)
type corruption =
  | Bad_magic  (** the first 8 bytes are not a journal/checkpoint magic *)
  | Bad_version of int  (** a future (or mangled) format version *)
  | Bad_length of { index : int; length : int }
      (** record [index] declares an absurd payload length *)
  | Bad_crc of int  (** record [index]'s payload fails its CRC *)
  | Bad_payload of { index : int; reason : string }
      (** the framing holds but the text is not a command line *)

val corruption_text : corruption -> string
(** One human-readable line, stable enough for tests to match on. *)

type read = {
  j_commands : (float * Command.t) list;  (** complete, valid records *)
  j_records : int;  (** length of [j_commands] *)
  j_truncated : bool;
      (** the file ended mid-record (torn tail discarded) — or even
          mid-header, which reads as an empty truncated journal *)
}

val read_file : string -> (read, corruption) result
(** Read one journal or checkpoint file. Only damage {e before} the
    final record is an error; an incomplete final record (any prefix of
    it, down to a truncated header) is reported as [j_truncated] with
    every earlier record intact — the crash-recovery contract the
    truncation sweep in [test_journal] pins at every byte offset. *)

val read_digest : string -> string option
(** The [#digest HEX] a checkpoint opens with, if the file's first
    record is intact and carries one. *)

type recovery = {
  r_generation : int;  (** -1 when the directory holds no checkpoint *)
  r_checkpoint : (float * Command.t) list;
  r_digest : string option;
      (** configuration fingerprint recorded at checkpoint time;
          verify it after replaying [r_checkpoint] *)
  r_tail : (float * Command.t) list;
      (** journal records accepted after the checkpoint, replay-ready *)
  r_truncated : bool;  (** the journal tail was torn (and discarded) *)
}

val recover : dir:string -> (recovery, corruption) result
(** Load the newest intact generation: its checkpoint script, the
    recorded digest, and the journal tail. A missing or empty directory
    recovers to the empty state ([r_generation = -1]); a corrupt newest
    checkpoint falls back to the next-older generation; a missing
    journal (crash between checkpoint rename and journal creation) is
    an empty tail. Corruption {e inside} the selected journal's
    non-tail records is an error — silent command loss in the middle of
    history must never look like success. *)

type writer
(** An open generation: its checkpoint is on disk, its journal is open
    for appends. One writer per state directory; the daemon owns it. *)

val start :
  dir:string ->
  generation:int ->
  checkpoint:(float * Command.t) list ->
  digest:string ->
  writer
(** Write [checkpoint.<generation>] atomically (temp + fsync + rename +
    directory fsync), open a fresh [journal.<generation>], then delete
    all older generations — in that order, so a crash at any point
    leaves at least one intact generation on disk. Creates [dir] if
    missing. *)

val append : writer -> now:float -> Command.t -> unit
(** Frame and append one accepted command, handed to the OS (a plain
    [write]) before returning — so no {e process} death, SIGKILL
    included, can revoke it. Power-loss durability is the stronger
    barrier {!close} provides. *)

val appended : writer -> int
(** Commands appended to the current generation's journal so far. *)

type footprint = {
  journal_bytes : int;
      (** bytes appended to the current generation's journal (frames
          and payloads; the 16-byte header is not counted) *)
  checkpoint_bytes : int;
      (** size of the current generation's checkpoint file, header
          included *)
}

val footprint : writer -> footprint
(** What the current generation holds on disk — the two sizes a
    rotation policy weighs against each other ({!Daemon.run} rotates
    once the journal outweighs its checkpoint). *)

val generation : writer -> int

val rotate : writer -> checkpoint:(float * Command.t) list -> digest:string -> unit
(** Begin generation [generation w + 1]: checkpoint the given state,
    switch appends to the new journal, drop the old generation. The
    writer survives rotation; [appended] and [journal_bytes] reset to
    0. *)

val close : writer -> unit
(** fsync then close the journal fd — the durability barrier a
    graceful shutdown takes before exiting. The writer must not be
    used after. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3, reflected) over a whole string — exposed so the
    corruption-matrix tests can forge valid frames around bad payloads. *)
