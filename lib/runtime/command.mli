(** The control plane's command language — the moral equivalent of
    [tc class add/change/del] / altq's runtime interface, sharing
    lib/config's rate, time and curve grammar.

    One command per line; [#] starts a comment; tokens are
    whitespace-separated. Curves use exactly the class-statement forms
    of {!Config}: a bare [RATE], [m1 RATE d TIME m2 RATE], or
    [umax BYTES dmax TIME rate RATE].

    {b Addressing.} Every command is a {!t}: an operation {!op} plus a
    {!target} naming the link it applies to. A command with no [link]
    prefix targets {!Default_link} — on a single-link engine (or a
    one-link router) that is the sole link, which keeps every script
    written for the pre-router grammar parsing and behaving exactly as
    before. On a multi-link router, [link NAME] scopes a command to one
    link, and three router-wide verbs manage the link set itself:

    {v
    [link NAME] add class NAME parent PARENT [flow N] [rsc CURVE]
                          [fsc CURVE] [ulimit CURVE] [quantum N]
                          [qlimit N] [qbytes N]
    [link NAME] modify class NAME [rsc CURVE] [fsc CURVE] [ulimit CURVE]
                          [quantum N] [qlimit N] [qbytes N]
    [link NAME] delete class NAME
    [link NAME] attach filter flow N [src CIDR] [dst CIDR]
                          [proto tcp|udp|icmp|NUM] [sport LO HI] [dport LO HI]
    [link NAME] detach filter flow N
    [link NAME] stats [NAME]
    [link NAME] trace on|off|dump
    [link NAME] limit [pkts N|none] [bytes N|none] [policy tail|longest]

    link add NAME rate RATE [backend hfsc|rr]
                                  # create a link (RATE as in config files)
    link delete NAME              # remove a link and its whole hierarchy
    link list                     # one line per link
    v}

    A class on an [rr]-backend link takes a [quantum BYTES] share
    instead of curves (the engine rejects curves there, and [quantum]
    on an hfsc link); without [quantum] it gets
    {!Sched.Hls.default_quantum}. On an hfsc link, [add class] needs an
    rsc or an fsc. These are the backend's rules, not the grammar's: a
    command breaking one parses, and [exec] refuses it with
    [bad-value].

    The words [add], [delete] and [list] are reserved as the router
    verbs and therefore cannot name a link in a scoped command; pick
    other link names. A [link NAME] scope cannot nest and cannot prefix
    the [link add/delete/list] verbs.

    [qlimit]/[qbytes] bound a leaf's queue in packets/bytes; [limit]
    sets the aggregate (per-link scheduler-wide) backlog bound and the
    drop policy used when it is hit ([tail] refuses the arriving packet,
    [longest] evicts from the longest leaf queue to make room).

    A {e script} is a sequence of such lines, each optionally prefixed
    with [at TIME] (absolute simulated time; bare seconds or a
    unit-suffixed time token). Lines without a prefix run at 0. *)

type curve_updates = {
  rsc : Curve.Service_curve.t option;
  fsc : Curve.Service_curve.t option;
  usc : Curve.Service_curve.t option;
}

type filter_spec = {
  fflow : int;
  fsrc : string option;
  fdst : string option;
  fproto : Pkt.Header.proto option;
  fsport : (int * int) option;
  fdport : (int * int) option;
}

type trace_op = Trace_on | Trace_off | Trace_dump

type limit_val = Unlimited | At of int
(** An aggregate bound: [Unlimited] lifts it, [At n] caps at [n]. *)

type limit_policy = Policy_tail | Policy_longest

type target =
  | Default_link  (** no [link] prefix: the sole link, where one exists *)
  | On_link of string  (** [link NAME ...]: scoped to that link *)

type op =
  | Add_class of {
      name : string;
      parent : string;
      flow : int option;
      curves : curve_updates;
      quantum : int option;  (** rr backend only *)
      qlimit : int option;
      qbytes : int option;
    }
  | Modify_class of {
      name : string;
      curves : curve_updates;
      quantum : int option;  (** rr backend only *)
      qlimit : int option;
      qbytes : int option;
    }
  | Delete_class of string
  | Attach_filter of filter_spec
  | Detach_filter of int  (** by flow id *)
  | Stats of string option
  | Trace of trace_op
  | Set_limit of {
      lpkts : limit_val option;
      lbytes : limit_val option;
      lpolicy : limit_policy option;
    }
  | Link_add of { link : string; rate : float; backend : Backend.kind }
      (** [link add NAME rate RATE [backend hfsc|rr]]; [rate] in
          bytes/second; the backend defaults to hfsc and is fixed for
          the link's lifetime *)
  | Link_delete of string  (** [link delete NAME] *)
  | Link_list  (** [link list] *)

type t = { target : target; op : op }
(** A parsed command: what to do and which link to do it to. The
    [link add/delete/list] verbs always parse with [Default_link] —
    they address the router, not a link. *)

type error = { line : int; reason : string }

val is_blank : char -> bool
(** The grammar's whitespace, which separates tokens: a space or a tab.
    The daemon splits its own verbs on the same set. *)

val parse : string -> (t, string) result
(** Parse a single command (no [at] prefix, no comment handling). *)

val parse_script : string -> ((float * t) list, error) result
(** Parse a whole script; commands are returned in file order with
    their absolute times. Errors carry the 1-based line number. *)

val parse_script_file : string -> ((float * t) list, error) result
(** {!parse_script} on the contents of a file, so every consumer of
    script files shares one loader — and therefore one attribution:
    the [error]'s line number is always a line of {e this} file. A
    read failure is reported as [line = 0]. *)

val to_buffer : Buffer.t -> t -> unit
(** Writes the command in its own grammar ([link NAME] prefix
    included), so a written command re-parses to itself. The one
    renderer: {!to_string}, {!pp} and the journal all go through it. *)

val to_string : t -> string
(** {!to_buffer} into a fresh buffer. *)

val pp : Format.formatter -> t -> unit
(** [Format.pp_print_string] of {!to_string}. *)

val float_text : float -> string
(** The round-trip float text the writer uses for rates and times
    ([%.12g], falling back to [%.17g] when that loses bits):
    [float_of_string] of it is always the original float. The journal
    reuses it so a replayed [at TIME] is bit-identical. *)

val add_float : Buffer.t -> float -> unit
(** {!float_text} written into a buffer; an integral float below 1e12
    goes straight in as digits, with no intermediate string. *)

val add_int : Buffer.t -> int -> unit
(** [string_of_int]'s text written into a buffer digit by digit — the
    writer's path for every int in a command. *)

val pp_float : Format.formatter -> float -> unit
(** [Format.pp_print_string] of {!float_text}. *)

val is_mutating : t -> bool
(** Whether a successful execution of this command changes control-plane
    state that recovery must reproduce: class add/modify/delete, filter
    attach/detach, aggregate limits, link add/delete. [stats], [trace]
    and [link list] are not mutating ([trace on/off] toggles telemetry
    only, which is deliberately not persisted — see the durability
    model in DESIGN.md). This is the predicate {!Journal} appends
    are gated on. *)
