(* All-float, hence a flat record: updating it never boxes. [pending] is
   the arrival the last successful [pull] produced; [clock] is the
   native generators' own time cursor. *)
type times = { mutable pending : float; mutable clock : float }

type gen =
  | Cbr of { interval : float; stop : float }
  | Poisson of { rng : Random.State.t; mean_gap : float; stop : float }
  | Stream of (unit -> (float * int) option)

type t = { flow_id : int; gen : gen; times : times; mutable size : int }

let flow s = s.flow_id

let[@inline] exp_draw rng mean = -.mean *. log (1. -. Random.State.float rng 1.)

let pull s =
  let tm = s.times in
  match s.gen with
  | Cbr { interval; stop } ->
      let c = tm.clock in
      if c >= stop then false
      else begin
        tm.pending <- c;
        tm.clock <- c +. interval;
        true
      end
  | Poisson { rng; mean_gap; stop } ->
      let c = tm.clock +. exp_draw rng mean_gap in
      tm.clock <- c;
      if c >= stop then false
      else begin
        tm.pending <- c;
        true
      end
  | Stream gen -> (
      match gen () with
      | None -> false
      | Some (at, size) ->
          tm.pending <- at;
          s.size <- size;
          true)

let time s = s.times.pending
let size s = s.size
let next s = if pull s then Some (s.times.pending, s.size) else None

let make ~flow ?(start = 0.) ?(size = 0) gen =
  { flow_id = flow; gen; times = { pending = start; clock = start }; size }

let stream ~flow gen = make ~flow (Stream gen)

let check_rate rate =
  if rate <= 0. || not (Float.is_finite rate) then
    invalid_arg "Source: rate must be finite and > 0"

let check_size pkt_size =
  if pkt_size <= 0 then invalid_arg "Source: pkt_size must be > 0"

let cbr ~flow ~rate ~pkt_size ?(start = 0.) ?(stop = infinity) () =
  check_rate rate;
  check_size pkt_size;
  let interval = float_of_int pkt_size /. rate in
  make ~flow ~start ~size:pkt_size (Cbr { interval; stop })

let poisson ~flow ~rate ~pkt_size ~seed ?(start = 0.) ?(stop = infinity) () =
  check_rate rate;
  check_size pkt_size;
  let rng = Random.State.make [| seed |] in
  let mean_gap = float_of_int pkt_size /. rate in
  make ~flow ~start ~size:pkt_size (Poisson { rng; mean_gap; stop })

(* Shared on-off machinery: [draw_on]/[draw_off] sample period lengths;
   packets are CBR at [peak_rate] within ON periods. *)
let on_off ~flow ~peak_rate ~pkt_size ~draw_on ~draw_off ~start ~stop =
  check_rate peak_rate;
  check_size pkt_size;
  let interval = float_of_int pkt_size /. peak_rate in
  let t = ref start in
  let on_left = ref 0. in
  let gen () =
    while !on_left < interval && !t < stop do
      (* jump over the gap to the next ON period *)
      if !on_left > 0. then t := !t +. !on_left;
      t := !t +. draw_off ();
      on_left := draw_on ()
    done;
    if !t >= stop then None
    else begin
      let at = !t in
      t := !t +. interval;
      on_left := !on_left -. interval;
      Some (at, pkt_size)
    end
  in
  stream ~flow gen

let on_off_exp ~flow ~peak_rate ~pkt_size ~mean_on ~mean_off ~seed
    ?(start = 0.) ?(stop = infinity) () =
  if mean_on <= 0. || mean_off <= 0. then
    invalid_arg "Source.on_off_exp: means must be > 0";
  let rng = Random.State.make [| seed |] in
  on_off ~flow ~peak_rate ~pkt_size
    ~draw_on:(fun () -> exp_draw rng mean_on)
    ~draw_off:(fun () -> exp_draw rng mean_off)
    ~start ~stop

let pareto_draw rng ~shape ~mean =
  (* scale so that E[X] = mean: scale = mean (shape-1)/shape *)
  let scale = mean *. (shape -. 1.) /. shape in
  let u = 1. -. Random.State.float rng 1. in
  scale /. (u ** (1. /. shape))

let on_off_pareto ~flow ~peak_rate ~pkt_size ~mean_on ~mean_off ~shape ~seed
    ?(start = 0.) ?(stop = infinity) () =
  if shape <= 1. then invalid_arg "Source.on_off_pareto: shape must be > 1";
  if mean_on <= 0. || mean_off <= 0. then
    invalid_arg "Source.on_off_pareto: means must be > 0";
  let rng = Random.State.make [| seed |] in
  on_off ~flow ~peak_rate ~pkt_size
    ~draw_on:(fun () -> pareto_draw rng ~shape ~mean:mean_on)
    ~draw_off:(fun () -> pareto_draw rng ~shape ~mean:mean_off)
    ~start ~stop

let burst ~flow ~pkt_size ~count ~at =
  check_size pkt_size;
  if count < 0 then invalid_arg "Source.burst: negative count";
  let left = ref count in
  let gen () =
    if !left = 0 then None
    else begin
      decr left;
      Some (at, pkt_size)
    end
  in
  stream ~flow gen

let saturating ~flow ~rate ~pkt_size ?start ?stop () =
  cbr ~flow ~rate ~pkt_size ?start ?stop ()

let adaptive ~flow ~pkt_size ~init_rate ~min_rate ~max_rate ?increase
    ?(delay_target = 0.020) ?(start = 0.) ?(stop = infinity) () =
  check_size pkt_size;
  if min_rate <= 0. || max_rate < min_rate then
    invalid_arg "Source.adaptive: need 0 < min_rate <= max_rate";
  if init_rate < min_rate || init_rate > max_rate then
    invalid_arg "Source.adaptive: init_rate outside [min_rate, max_rate]";
  let increase =
    match increase with
    | Some i when i > 0. -> i
    | Some _ -> invalid_arg "Source.adaptive: increase must be > 0"
    | None -> float_of_int (10 * pkt_size)
  in
  let rate = ref init_rate in
  let last = ref None in
  (* the gap to the next packet uses the rate at pull time, so feedback
     takes effect on the very next packet *)
  let gen () =
    let at =
      match !last with
      | None -> start
      | Some l -> l +. (float_of_int pkt_size /. !rate)
    in
    if at >= stop then None
    else begin
      last := Some at;
      Some (at, pkt_size)
    end
  in
  let feedback ~delay =
    if delay <= delay_target then
      rate := Float.min max_rate (!rate +. increase)
    else rate := Float.max min_rate (!rate *. 0.5)
  in
  (stream ~flow gen, feedback)

(* Token-bucket shaper: bucket of depth sigma filling at rho; a packet
   departs at the first instant (no earlier than its arrival and the
   previous departure) when the bucket holds its size. *)
let shaped ~sigma ~rho inner =
  if rho <= 0. || not (Float.is_finite rho) then
    invalid_arg "Source.shaped: rho must be finite and > 0";
  if sigma <= 0. then invalid_arg "Source.shaped: sigma must be > 0";
  let tokens = ref sigma in
  let last = ref 0. in
  let gen () =
    match next inner with
    | None -> None
    | Some (at, size) ->
        if float_of_int size > sigma then
          invalid_arg "Source.shaped: packet larger than the bucket";
        let t0 = Float.max at !last in
        tokens := Float.min sigma (!tokens +. ((t0 -. !last) *. rho));
        let need = float_of_int size -. !tokens in
        let t1 = if need <= 0. then t0 else t0 +. (need /. rho) in
        tokens := Float.min sigma (!tokens +. ((t1 -. t0) *. rho));
        tokens := !tokens -. float_of_int size;
        last := t1;
        Some (t1, size)
  in
  stream ~flow:inner.flow_id gen

let script ~flow arrivals =
  let rec check = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
        if t2 < t1 then invalid_arg "Source.script: times must be sorted";
        check rest
    | _ -> ()
  in
  check arrivals;
  let rest = ref arrivals in
  let gen () =
    match !rest with
    | [] -> None
    | (t, sz) :: tl ->
        rest := tl;
        Some (t, sz)
  in
  stream ~flow gen
