(* Reply slot and parker over one SC atomic each, with a mutex and a
   condition variable for the side that sleeps. See the .mli for the
   ownership contract and the lost-wakeup argument. *)

type 'a slot = {
  value : ('a, exn) result Atomic.t; (* [empty] when no value waits *)
  waiting : bool Atomic.t; (* the awaiter may be asleep *)
  m : Mutex.t;
  c : Condition.t;
}

(* a preallocated sentinel, told apart by physical equality, so a fill
   allocates only its [Ok]/[Error] block *)
exception Empty

let empty = Error Empty

let slot () =
  {
    value = Atomic.make empty;
    waiting = Atomic.make false;
    m = Mutex.create ();
    c = Condition.create ();
  }

let publish s r =
  Atomic.set s.value r;
  (* read only after the value is published (Dekker) *)
  if Atomic.get s.waiting then begin
    Mutex.lock s.m;
    Mutex.unlock s.m;
    Condition.signal s.c
  end

let fill s v = publish s (Ok v)
let fail s e = publish s (Error e)

let await s =
  let r = Atomic.exchange s.value empty in
  let r =
    if r != empty then r
    else begin
      Atomic.set s.waiting true;
      Mutex.lock s.m;
      (* re-check after announcing the wait (Dekker) *)
      let rec wait () =
        let r = Atomic.exchange s.value empty in
        if r != empty then r
        else begin
          Condition.wait s.c s.m;
          wait ()
        end
      in
      let r = wait () in
      Mutex.unlock s.m;
      Atomic.set s.waiting false;
      r
    end
  in
  match r with Ok v -> v | Error e -> raise e

type parker = {
  parked : bool Atomic.t;
  mutable woken : bool; (* under [pm] *)
  pm : Mutex.t;
  pc : Condition.t;
}

let parker () =
  {
    parked = Atomic.make false;
    woken = false;
    pm = Mutex.create ();
    pc = Condition.create ();
  }

let park p ~has_work =
  if not (has_work ()) then begin
    Atomic.set p.parked true;
    (* re-check after publishing [parked] (Dekker) *)
    if has_work () then Atomic.set p.parked false
    else begin
      Mutex.lock p.pm;
      while not (p.woken || has_work ()) do
        Condition.wait p.pc p.pm
      done;
      p.woken <- false;
      Mutex.unlock p.pm;
      Atomic.set p.parked false
    end
  end

let wake p =
  if Atomic.get p.parked then begin
    Mutex.lock p.pm;
    p.woken <- true;
    Mutex.unlock p.pm;
    Condition.signal p.pc
  end
