(* The eligible/deadline augmented tree of Section V, keyed by
   (eligible, id), each node caching the subtree element of minimum
   (deadline, id). The search prunes on one fact: if a node is
   eligible, its whole left subtree is too, so the left cache can be
   taken wholesale. Node state lives in the elements themselves and
   updates mutate in place.

   All hot entry points exist in a [_raw] form returning the [nil]
   sentinel instead of an option, so a steady-state scheduler cycle
   allocates nothing here. *)

module type CLASS = sig
  type t

  val nil : t
  val compare : t -> t -> int
  (** Order by (eligible, id); 0 only for physically equal elements. *)

  val eligible_le : t -> float -> bool
  (** [eligible_le c now] is [eligible c <= now] — a predicate so no
      float return crosses the (never-inlined) functor boundary. *)

  val better_deadline : t -> t -> bool
  (** Strict (deadline, id) order. *)

  (* Intrusive node state: links, cached height, and the cached
     min-(deadline, id) element of the node's subtree. *)
  val left : t -> t
  val set_left : t -> t -> unit
  val right : t -> t
  val set_right : t -> t -> unit
  val height : t -> int
  val set_height : t -> int -> unit
  val agg : t -> t
  val set_agg : t -> t -> unit
end

module Make (C : CLASS) = struct
  module T = Intrusive_tree.Make (struct
    type elt = C.t

    let nil = C.nil
    let compare = C.compare
    let left = C.left
    let set_left = C.set_left
    let right = C.right
    let set_right = C.set_right
    let height = C.height
    let set_height = C.set_height

    let refresh_agg n =
      let best = n in
      let l = C.left n in
      let best =
        if l != C.nil && C.better_deadline (C.agg l) best then C.agg l
        else best
      in
      let r = C.right n in
      let best =
        if r != C.nil && C.better_deadline (C.agg r) best then C.agg r
        else best
      in
      C.set_agg n best
  end)

  (* A tree is just its root element; [nil] is the empty tree. *)
  type t = C.t

  let nil = C.nil
  let empty = C.nil
  let is_empty = T.is_empty
  let cardinal = T.cardinal
  let insert = T.insert
  let remove = T.remove
  let mem = T.mem
  let iter = T.iter
  let validate = T.validate
  let min_eligible_raw = T.min_elt

  let min_eligible root =
    let m = T.min_elt root in
    if m == C.nil then None else Some m

  let to_list root = List.rev (T.fold (fun v acc -> v :: acc) root [])

  let rec go_mde now n best =
    if n == C.nil then best
    else if C.eligible_le n now then begin
      let l = C.left n in
      let best =
        if l == C.nil then best
        else begin
          let a = C.agg l in
          if best == C.nil || C.better_deadline a best then a else best
        end
      in
      let best =
        if best == C.nil || C.better_deadline n best then n else best
      in
      go_mde now (C.right n) best
    end
    else go_mde now (C.left n) best

  let min_deadline_eligible_raw root ~now = go_mde now root C.nil

  let min_deadline_eligible root ~now =
    let m = go_mde now root C.nil in
    if m == C.nil then None else Some m
end
