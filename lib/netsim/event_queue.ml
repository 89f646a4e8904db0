(* A binary min-heap over (time, insertion seq), stored as a struct of
   arrays so an event costs no record, no boxed time and no write
   barrier: times unboxed in a [Float.Array], seqs and int payloads in
   plain int arrays. Sifts move a hole instead of swapping. *)
type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable evs : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  {
    times = Float.Array.create 0;
    seqs = [||];
    evs = [||];
    size = 0;
    next_seq = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = max 16 (2 * t.size) in
  let times = Float.Array.create cap in
  Float.Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make cap 0 and evs = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.evs 0 evs 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.evs <- evs

let stamp t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let add t at ev =
  if Float.is_nan at then invalid_arg "Event_queue.add: NaN time";
  if t.size = Array.length t.seqs then grow t;
  let times = t.times and seqs = t.seqs and evs = t.evs in
  let seq = stamp t in
  (* the new entry's seq is the largest yet, so it rises only past
     strictly later times: ties stay behind their elders (FIFO) *)
  let i = ref t.size and rising = ref true in
  t.size <- t.size + 1;
  while !rising && !i > 0 do
    let p = (!i - 1) / 2 in
    if at < Float.Array.unsafe_get times p then begin
      Float.Array.unsafe_set times !i (Float.Array.unsafe_get times p);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set evs !i (Array.unsafe_get evs p);
      i := p
    end
    else rising := false
  done;
  Float.Array.unsafe_set times !i at;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set evs !i ev

let times t = t.times
let next_stamp t = if t.size = 0 then max_int else Array.unsafe_get t.seqs 0

let take t =
  if t.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let times = t.times and seqs = t.seqs and evs = t.evs in
  let top = Array.unsafe_get evs 0 in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* sift the last entry down from the root's hole *)
    let lt = Float.Array.unsafe_get times n in
    let ls = Array.unsafe_get seqs n and le = Array.unsafe_get evs n in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then
            let tl = Float.Array.unsafe_get times l
            and tr = Float.Array.unsafe_get times r in
            if
              tr < tl
              || (tr = tl && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
            then r
            else l
          else l
        in
        let tc = Float.Array.unsafe_get times c in
        if tc < lt || (tc = lt && Array.unsafe_get seqs c < ls) then begin
          Float.Array.unsafe_set times !i tc;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set evs !i (Array.unsafe_get evs c);
          i := c
        end
        else sifting := false
      end
    done;
    Float.Array.unsafe_set times !i lt;
    Array.unsafe_set seqs !i ls;
    Array.unsafe_set evs !i le
  end;
  top
