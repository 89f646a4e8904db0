(* Mutable, intrusive, augmented AVL tree (Section V, done the way the
   NetBSD implementation does it): the node fields — child links, height
   and the subtree aggregate — live *inside* the element itself, exposed
   to this functor through accessors. Insertion and removal rebalance in
   place along the search path, so a tree update allocates nothing: no
   node boxes, no path copying, no options.

   Absence is a caller-supplied sentinel element [nil] compared with
   physical equality (an [elt option] would cost a [Some] box per link
   write). An element may be a member of at most one tree instantiated
   from a given functor application at a time; membership bookkeeping
   (the scheduler's [in_ed]/[in_actc] flags) is the caller's business.

   The element's ordering key and aggregate inputs must not change while
   it is in a tree: reposition with [remove]; mutate; [insert].

   This module is deliberately free of any float-returning functions
   across the functor boundary: without flambda, a call through a
   functor argument is never inlined, and a float crossing such a call
   gets boxed. Aggregates are therefore maintained by an opaque
   [refresh_agg] callback, and key comparisons arrive as an
   int-returning [compare]. The wrappers ({!Ed_itree}, {!Vt_itree})
   follow the same rule for their pruned searches. *)

module type SPEC = sig
  type elt

  val nil : elt
  (** Sentinel meaning "no node"; never inserted, compared with [==]. *)

  val compare : elt -> elt -> int
  (** Strict total order; 0 only for physically equal elements (break
      ties on a unique id). *)

  val left : elt -> elt
  val set_left : elt -> elt -> unit
  val right : elt -> elt
  val set_right : elt -> elt -> unit
  val height : elt -> int
  val set_height : elt -> int -> unit

  val refresh_agg : elt -> unit
  (** Recompute the element's cached subtree aggregate from its own
      contribution and its children's caches (children may be [nil]).
      Called bottom-up on every path the tree restructures. *)
end

module Make (S : SPEC) = struct
  type elt = S.elt

  let nil = S.nil
  let height n = if n == nil then 0 else S.height n
  let is_empty root = root == nil

  let fixup n =
    let hl = height (S.left n) and hr = height (S.right n) in
    S.set_height n (1 + if hl > hr then hl else hr);
    S.refresh_agg n

  let rot_right n =
    let l = S.left n in
    S.set_left n (S.right l);
    S.set_right l n;
    fixup n;
    fixup l;
    l

  let rot_left n =
    let r = S.right n in
    S.set_right n (S.left r);
    S.set_left r n;
    fixup n;
    fixup r;
    r

  (* [bal n] assumes n's subtrees are valid AVL trees whose heights
     differ by at most 2, and that they are already fixed up; returns
     the new root of the rebalanced, fixed-up subtree. *)
  let bal n =
    let hl = height (S.left n) and hr = height (S.right n) in
    if hl > hr + 1 then begin
      let l = S.left n in
      if height (S.left l) >= height (S.right l) then rot_right n
      else begin
        S.set_left n (rot_left l);
        rot_right n
      end
    end
    else if hr > hl + 1 then begin
      let r = S.right n in
      if height (S.right r) >= height (S.left r) then rot_left n
      else begin
        S.set_right n (rot_right r);
        rot_left n
      end
    end
    else begin
      fixup n;
      n
    end

  let rec insert x root =
    if root == nil then begin
      S.set_left x nil;
      S.set_right x nil;
      S.set_height x 1;
      S.refresh_agg x;
      x
    end
    else begin
      let c = S.compare x root in
      if c = 0 then invalid_arg "Intrusive_tree.insert: duplicate key";
      if c < 0 then S.set_left root (insert x (S.left root))
      else S.set_right root (insert x (S.right root));
      bal root
    end

  let rec min_elt root =
    if root == nil then nil
    else begin
      let l = S.left root in
      if l == nil then root else min_elt l
    end

  (* Successor extraction for removal: find the minimum ([min_elt]),
     then detach it. Two left-spine descents, but no allocated result
     pair and no shared scratch state — a module-level out-param ref
     would be one cell per functor application, racing between trees
     used on different domains. *)
  let rec detach_min root =
    if S.left root == nil then S.right root
    else begin
      S.set_left root (detach_min (S.left root));
      bal root
    end

  let clear_node n =
    S.set_left n nil;
    S.set_right n nil;
    S.set_height n 0

  let rec remove x root =
    if root == nil then nil (* not a member: removal is a no-op *)
    else begin
      let c = S.compare x root in
      if c < 0 then begin
        S.set_left root (remove x (S.left root));
        bal root
      end
      else if c > 0 then begin
        S.set_right root (remove x (S.right root));
        bal root
      end
      else begin
        let l = S.left root and r = S.right root in
        clear_node root;
        if r == nil then l
        else begin
          let s = min_elt r in
          let r' = detach_min r in
          S.set_left s l;
          S.set_right s r';
          bal s
        end
      end
    end

  let rec max_elt root =
    if root == nil then nil
    else begin
      let r = S.right root in
      if r == nil then root else max_elt r
    end

  let rec mem x root =
    if root == nil then false
    else begin
      let c = S.compare x root in
      if c = 0 then x == root
      else if c < 0 then mem x (S.left root)
      else mem x (S.right root)
    end

  let rec cardinal root =
    if root == nil then 0
    else 1 + cardinal (S.left root) + cardinal (S.right root)

  let rec iter f root =
    if root != nil then begin
      iter f (S.left root);
      f root;
      iter f (S.right root)
    end

  (* In-order fold, built on [iter]; test/introspection use only. *)
  let fold f root acc =
    let acc = ref acc in
    iter (fun x -> acc := f x !acc) root;
    !acc

  (* Structural check for tests: AVL balance, cached heights and the
     search order all hold. Raises [Failure] otherwise. *)
  let validate root =
    let rec go n =
      if n == nil then 0
      else begin
        let l = S.left n and r = S.right n in
        let hl = go l and hr = go r in
        if abs (hl - hr) > 1 then failwith "Intrusive_tree: unbalanced";
        let h = 1 + max hl hr in
        if S.height n <> h then failwith "Intrusive_tree: stale height";
        if l != nil && S.compare l n >= 0 then
          failwith "Intrusive_tree: order violation (left)";
        if r != nil && S.compare r n <= 0 then
          failwith "Intrusive_tree: order violation (right)";
        h
      end
    in
    ignore (go root)
end
