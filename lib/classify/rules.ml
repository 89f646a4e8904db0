type rule = {
  src : Prefix.t;
  dst : Prefix.t;
  proto : Pkt.Header.proto option;
  sport : int * int;
  dport : int * int;
  flow : int;
}

let check_range name (lo, hi) =
  if lo < 0 || hi > 65535 || lo > hi then
    invalid_arg (Printf.sprintf "Rules.rule: bad %s range" name)

let rule ?src ?dst ?proto ?(sport = (0, 65535)) ?(dport = (0, 65535)) ~flow ()
    =
  check_range "sport" sport;
  check_range "dport" dport;
  {
    src = (match src with Some s -> Prefix.of_string s | None -> Prefix.any);
    dst = (match dst with Some s -> Prefix.of_string s | None -> Prefix.any);
    proto;
    sport;
    dport;
    flow;
  }

let flow_of r = r.flow

type t = { rules : rule list; default : int option }

let create ?default rules = { rules; default }

let in_range (lo, hi) p = p >= lo && p <= hi

let matches r (h : Pkt.Header.t) =
  Prefix.matches r.src h.Pkt.Header.src
  && Prefix.matches r.dst h.Pkt.Header.dst
  && (match r.proto with
     | None -> true
     | Some p -> Pkt.Header.proto_number p = Pkt.Header.proto_number h.proto)
  && in_range r.sport h.sport
  && in_range r.dport h.dport

let classify t h =
  match List.find_opt (fun r -> matches r h) t.rules with
  | Some r -> Some r.flow
  | None -> t.default

let length t = List.length t.rules
