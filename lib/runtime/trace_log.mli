(** Binary spill-to-disk for the telemetry event ring.

    The in-memory ring ({!Telemetry}) is fixed capacity: once
    [recorded_total] passes it, the oldest events are overwritten and a
    multi-hour run loses its history. A {!sink} drains the ring
    incrementally to a framed binary log, so the ring stays the cheap
    allocation-free front buffer and the disk holds everything.

    {b File format} (all integers little-endian, fixed width):

    {v
    header, 24 bytes:
      0  magic   "HFSCTRCE"          (8 bytes)
      8  version u32                 (this writer: 1)
      12 record_size u32             (this writer: 32)
      16 reserved u64                (zero)
    then records, [record_size] bytes each:
      0  ts    u64   IEEE-754 bits of the event timestamp
      8  seq   u64   packet sequence number
      16 cls   u32   Hfsc.id of the class
      20 flow  u32   flow id
      24 size  u32   packet size in bytes
      28 kind  u16   event kind (0 enq, 1 deq-rt, 2 deq-ls, 3 drop)
      30 pad   u16   zero
    v}

    A reader must reject a bad magic, an unsupported version, a
    [record_size] it does not understand, and a body whose length is
    not a whole number of records (a truncated tail). Unknown kind
    codes are corrupt records.

    {b Ownership.} A sink carries no synchronisation: drain it on the
    domain that owns the telemetry it drains, one domain at a time. The
    daemon spills a multicore router's link by lending the sink to the
    link's worker for one call ({!Engine.drain_trace}), so the same
    {!Sink.drain} writes every spill file. *)

(** {2 Writing} *)

val schema_version : int
(** The version this writer stamps into headers (1). *)

val record_size : int
(** Bytes per record this writer emits (32). *)

module Sink : sig
  type t

  val create : path:string -> unit -> t
  (** Open (truncate) [path] and write the header. A 512-record
      staging {!Bytes} buffer backs the drain hot path: it encodes
      into it and hands the OS one write per buffer fill, allocating
      nothing per event.

      @raise Sys_error as [open_out] does. *)

  val path : t -> string

  val drain : t -> Telemetry.t -> int
  (** Append every ring event not yet spilled (the sink keeps the
      cursor), return how many records this call wrote. Events the ring
      overwrote before the call could see them are counted in {!lost}.
      Allocation-free per event. *)

  val written : t -> int
  (** Records written over the sink's lifetime. *)

  val lost : t -> int
  (** Events the ring overwrote before any drain saw them — the spill
      equivalent of {!Telemetry.dropped_events}, zero when the sink is
      drained at least every [capacity] events. *)

  val close : t -> unit
  (** Flush and close; idempotent. The file is closed even when the
      flush raises [Sys_error]. Further drains raise [Sys_error]. *)
end

(** {2 Reading} *)

type header = { version : int; rec_size : int }

val read_file : string -> (header * Telemetry.event list, string) result
(** Decode a spill file, oldest record first. [Error] describes the
    first problem found: unreadable file, short or bad-magic header,
    unsupported schema version, foreign record size, truncated tail, or
    a corrupt kind code (with its record index). *)

val fold_file :
  string -> init:'a -> f:('a -> Telemetry.event -> 'a) -> ('a, string) result
(** Streaming form of {!read_file} — one record in memory at a time, so
    multi-gigabyte spills aggregate in constant space. *)

(** {2 Delay histogram}

    The offline aggregator over spilled traces: pairs each dequeue with
    its enqueue by [(flow, seq)] and buckets the observed in-scheduler
    sojourn — the same per-packet quantity the live telemetry's
    deadline-miss proxy compares against the class's [S_rsc^-1(size)]
    bound — into log-scale buckets, real-time and link-sharing dequeues
    counted separately. *)

module Histogram : sig
  type t

  val create : unit -> t
  (** 32 buckets: bucket 0 is [[0, 1 us)], bucket [i > 0] covers
      [[2^(i-1), 2^i)] us, and the last bucket also absorbs everything
      above it. *)

  val observe : t -> rt:bool -> float -> unit
  (** Account one sojourn directly (negative delays clamp to 0). *)

  val feed : t -> Telemetry.event list -> unit
  (** Account a decoded event stream: enqueues open a pending entry,
      dequeues close it and observe the sojourn, drops discard it.
      Pending entries persist across calls, so a spill read in chunks
      (or split over files) aggregates correctly. *)

  val feed_file : t -> string -> (unit, string) result
  (** {!fold_file} composed with {!feed}, in constant space. *)

  val samples : t -> int
  (** Dequeues observed (rt + ls). *)

  val unmatched : t -> int
  (** Dequeues whose enqueue was never seen (spill started mid-run, or
      the ring overwrote the enqueue before a drain). *)

  val max_delay : t -> float
  val buckets : t -> (float * float * int * int) array
  (** Per bucket: [(lo, hi, rt_count, ls_count)]. *)

  val to_text : t -> string
  (** A table of the non-empty buckets plus the totals line. *)
end
