(** Shared plumbing for the experiment suite (E1–E10 of DESIGN.md):
    unit helpers, the Fig. 1 hierarchy in both H-FSC and H-PFQ forms,
    and table rendering. *)

val mbit : float -> float
(** [mbit 45.] is 45 Mbit/s in bytes/s. *)

val kbit : float -> float

val pp_rate : float -> string
(** Render bytes/s as "x.xx Mb/s". *)

val pp_delay : float -> string
(** Render seconds as "x.xxx ms". *)

val max_delay : Netsim.Stats.Delay.t option -> float
(** The largest sample; 0 for a flow with none. *)

(** Flow ids of the Fig. 1 scenario. *)
val flow_audio : int

val flow_video : int
val flow_cmu_data : int
val flow_pitt_data : int

(** The Fig. 1 hierarchy: a 45 Mb/s link split CMU 25 / U.Pitt 20;
    under CMU a 64 kb/s distinguished-lecture audio leaf (concave rsc,
    [audio_dmax] guarantee for 160 B packets), a 2 Mb/s video leaf
    (concave rsc, [video_dmax] for 1000 B packets) and a data leaf with
    the remaining CMU bandwidth; under U.Pitt one data leaf. *)

val link_rate : float

val audio_dmax : float
val video_dmax : float
val audio_pkt : int
val video_pkt : int
val data_pkt : int
val audio_rate : float
val video_rate : float

type fig1 = {
  sched : Sched.Scheduler.t;
  hfsc : Hfsc.t option;  (** the underlying instance when H-FSC *)
}

val fig1_hfsc :
  ?vt_policy:Hfsc.vt_policy ->
  ?eligible_policy:Hfsc.eligible_policy ->
  unit ->
  fig1

val fig1_hpfq : unit -> fig1

val fig1_sources : until:float -> Netsim.Source.t list
(** The scenario traffic until [until]: CBR audio and video,
    saturating CMU and U.Pitt data. *)

val run_sim :
  sched:Sched.Scheduler.t ->
  sources:Netsim.Source.t list ->
  until:float ->
  ?on_departure:(now:float -> Sched.Scheduler.served -> unit) ->
  unit ->
  Netsim.Stats.Flow_delay.t
(** Every flow's delays through [sched] on the scenario's link. *)

val fluid_replay :
  fluid:Fluid.Fluid_fsc.t ->
  sources:Netsim.Source.t list ->
  cls_of:(int -> Fluid.Fluid_fsc.cls) ->
  sample_every:float ->
  sample_classes:Fluid.Fluid_fsc.cls list ->
  until:float ->
  (float * float) list list
(** Replay the given (freshly created, deterministic) sources into the
    fluid ideal model, mapping each flow to a fluid class via [cls_of],
    and sample each class's cumulative service every [sample_every]
    seconds up to [until]. Returns one [(time, bytes)] series per
    element of [sample_classes], in order. *)

val table : header:string list -> string list list -> unit
(** Print an aligned table to stdout. *)

val section : string -> unit
(** Print an experiment banner. *)
