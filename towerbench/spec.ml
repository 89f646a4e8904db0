(* What the workloads are made of: device shapes, the control-plane
   script that builds a device, the packet sources that load it and the
   request script that churns it. Everything here is a pure function of
   the device shape and the seed, so two runs with one seed offer the
   program identical inputs. *)

type backend = Hfsc | Rr

type link = {
  lname : string;
  backend : backend;
  rate : int;  (** bytes/s *)
  groups : int;  (** interior classes under the root *)
  per_group : int;  (** leaves under each interior class *)
}

type device = link list

let pkt_size = 200
let qlimit = 64

(* Every leaf's fair share, and the real-time leaves' long-term rate. A
   real-time leaf's rsc is concave: [umax 200 B] within [dmax 2 ms]
   (100 kB/s), then 40 kB/s. *)
let leaf_fsc = 40_000
let rt_umax = 200
let rt_dmax = 0.002

(* Offered load as a share of each link's rate; real-time leaves send
   CBR at this share of their rsc rate. *)
let offered_share = 1.05
let rt_share = 0.9

type leaf = {
  flow : int;  (** dense over the device, also the leaf's name [f<flow>] *)
  link : int;  (** index into the device *)
  group : int;
  rt : bool;  (** has a real-time curve (every 4th leaf of an hfsc link) *)
  quantum : int;  (** rr links: 200..800 B *)
}

let leaves (device : device) =
  let out = ref [] and flow = ref 0 in
  List.iteri
    (fun li l ->
      for g = 0 to l.groups - 1 do
        for j = 0 to l.per_group - 1 do
          let k = (g * l.per_group) + j in
          out :=
            {
              flow = !flow;
              link = li;
              group = g;
              rt = l.backend = Hfsc && k mod 4 = 0;
              quantum = 200 + (k * 37 mod 601);
            }
            :: !out;
          incr flow
        done
      done)
    device;
  Array.of_list (List.rev !out)

let group_name g = Printf.sprintf "g%d" g
let leaf_name flow = Printf.sprintf "f%d" flow

(* The control-plane script that builds [device], one command line per
   element, in the daemon's request grammar. Interior classes keep
   headroom (leaves take 80% of an hfsc interior's fsc) so the churn
   script's classes pass admission. *)
let build_lines (device : device) =
  let ls = leaves device in
  List.concat
    (List.mapi
       (fun li l ->
         let add =
           Printf.sprintf "link add %s rate %dBps%s" l.lname l.rate
             (match l.backend with Hfsc -> "" | Rr -> " backend rr")
         in
         let interiors =
           List.init l.groups (fun g ->
               match l.backend with
               | Hfsc ->
                   Printf.sprintf "link %s add class %s parent root fsc %dBps"
                     l.lname (group_name g) (l.rate / l.groups)
               | Rr ->
                   Printf.sprintf "link %s add class %s parent root quantum 4000"
                     l.lname (group_name g))
         in
         let leaf_lines =
           Array.to_list ls
           |> List.filter (fun lf -> lf.link = li)
           |> List.map (fun lf ->
                  let params =
                    match l.backend with
                    | Rr -> Printf.sprintf "quantum %d" lf.quantum
                    | Hfsc when lf.rt ->
                        Printf.sprintf
                          "rsc umax %d dmax %gms rate %dBps fsc %dBps" rt_umax
                          (rt_dmax *. 1e3) leaf_fsc leaf_fsc
                    | Hfsc -> Printf.sprintf "fsc %dBps" leaf_fsc
                  in
                  Printf.sprintf "link %s add class %s parent %s flow %d %s qlimit %d"
                    l.lname (leaf_name lf.flow) (group_name lf.group) lf.flow
                    params qlimit)
         in
         (add :: interiors) @ leaf_lines)
       device)

(* Packet sources for [horizon] simulated seconds. Real-time leaves send
   CBR at [rt_share] of their rsc rate from a seeded phase; every other
   leaf is Poisson with its own seeded stream, sized so each link is
   offered [offered_share] of its rate. *)
let sources (device : device) ~seed ~horizon =
  let ls = leaves device in
  let rt_rate = rt_share *. float_of_int leaf_fsc in
  (* per link: the Poisson rate that tops its real-time CBR up to the
     offered share *)
  let poisson_rate =
    Array.of_list
      (List.mapi
         (fun li l ->
           let n = ref 0 and n_rt = ref 0 in
           Array.iter
             (fun x ->
               if x.link = li then begin
                 incr n;
                 if x.rt then incr n_rt
               end)
             ls;
           ((offered_share *. float_of_int l.rate) -. (float_of_int !n_rt *. rt_rate))
           /. float_of_int (!n - !n_rt))
         device)
  in
  Array.to_list
    (Array.map
       (fun lf ->
         let st = Random.State.make [| seed; lf.flow |] in
         if lf.rt then
           let gap = float_of_int pkt_size /. rt_rate in
           Netsim.Source.cbr ~flow:lf.flow ~rate:rt_rate ~pkt_size
             ~start:(Random.State.float st gap) ~stop:horizon ()
         else
           Netsim.Source.poisson ~flow:lf.flow ~rate:poisson_rate.(lf.link)
             ~pkt_size ~seed:(Random.State.bits st) ~stop:horizon ())
       ls)

(* The request script of the control workload. Each round adds a class
   under a seeded rotation of interior classes, modifies it, reads its
   stats, pings and deletes it: three writes to two reads, leaving the
   configuration where it started. Rounds alternate over the links. *)
type req = Add | Modify | Stats | Ping | Delete

let is_write = function Add | Modify | Delete -> true | Stats | Ping -> false

let churn (device : device) ~seed ~requests =
  let links = Array.of_list device in
  let st = Random.State.make [| seed; 0x5eed |] in
  let perms =
    Array.map
      (fun l ->
        let p = Array.init l.groups Fun.id in
        for i = l.groups - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = p.(i) in
          p.(i) <- p.(j);
          p.(j) <- t
        done;
        p)
      links
  in
  let rounds = (requests + 4) / 5 in
  let out = ref [] in
  for r = 0 to rounds - 1 do
    let li = r mod Array.length links in
    let l = links.(li) in
    let g = perms.(li).(r / Array.length links mod l.groups) in
    let c = Printf.sprintf "c%d" r in
    let params a b =
      match l.backend with
      | Hfsc -> Printf.sprintf "fsc %dBps" a
      | Rr -> Printf.sprintf "quantum %d" b
    in
    List.iter
      (fun x -> out := x :: !out)
      [
        ( Add,
          Printf.sprintf "link %s add class %s parent %s %s qlimit 32" l.lname c
            (group_name g) (params 1000 300) );
        (Modify, Printf.sprintf "link %s modify class %s %s" l.lname c (params 2000 600));
        (Stats, Printf.sprintf "link %s stats %s" l.lname c);
        (Ping, "ping");
        (Delete, Printf.sprintf "link %s delete class %s" l.lname c);
      ]
  done;
  let all = Array.of_list (List.rev !out) in
  Array.sub all 0 (min requests (Array.length all))

(* Parse a build script; a line that does not parse is a bug in this
   file, not a measurement. *)
let parse_exn line =
  match Runtime.Command.parse line with
  | Ok c -> c
  | Error e -> Util.fail "unparsable script line %S: %s" line e
