(* The intrusive virtual-time tree of the link-sharing criterion,
   keyed by (vt, id), each node caching the minimum fit time of its
   subtree. The aggregate is a float, which the functor never touches
   directly (no flambda means no inlining across the functor boundary,
   and a float crossing it would be boxed): the caller stores the cache
   wherever it can be read unboxed — the scheduler keeps it in the
   class's flat float record — and hands this module a [refresh_agg]
   callback plus comparison predicates. *)

module type CLASS = sig
  type t

  val nil : t
  val compare : t -> t -> int
  (** Order by (vt, id); 0 only for physically equal elements. *)

  val fit_le : t -> float -> bool
  (** [fit_le c x] is [fit c <= x]. *)

  val agg_fit_le : t -> float -> bool
  (** [agg_fit_le c x]: the cached subtree min-fit of [c] is [<= x]. *)

  val min_fit_value : t -> float
  (** The cached subtree min-fit itself — cold paths only. *)

  val refresh_agg : t -> unit
  (** Recompute the cached subtree min-fit from the element's own fit
      and its children's caches. *)

  val left : t -> t
  val set_left : t -> t -> unit
  val right : t -> t
  val set_right : t -> t -> unit
  val height : t -> int
  val set_height : t -> int -> unit
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
    let refresh_agg = C.refresh_agg
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
  let min_vt_raw = T.min_elt
  let max_vt_raw = T.max_elt

  let min_vt root =
    let m = T.min_elt root in
    if m == C.nil then None else Some m

  let max_vt root =
    let m = T.max_elt root in
    if m == C.nil then None else Some m

  let to_list root = List.rev (T.fold (fun v acc -> v :: acc) root [])
  let min_fit root = if root == C.nil then infinity else C.min_fit_value root

  (* Leftmost (smallest (vt, id)) element with fit <= now, pruning on
     the cached subtree min-fit. *)
  let rec go_ff now n =
    if n == C.nil then C.nil
    else begin
      let l = C.left n in
      if l != C.nil && C.agg_fit_le l now then go_ff now l
      else if C.fit_le n now then n
      else begin
        let r = C.right n in
        if r != C.nil && C.agg_fit_le r now then go_ff now r else C.nil
      end
    end

  let first_fit_raw root ~now = go_ff now root

  let first_fit root ~now =
    let m = go_ff now root in
    if m == C.nil then None else Some m
end
