(** The experiment registry: every table/figure reproduction of
    DESIGN.md, addressable by id, runnable all at once or singly
    ([hfsc_sim run all], [hfsc_sim run E3 E7]). *)

type entry = {
  id : string;  (** "E1" ... "E10" *)
  title : string;
  run_and_print : unit -> unit;
}

val all : entry list
val find : string -> entry option
(** Case-insensitive lookup by id. *)

val run_all : unit -> unit
