type t = { addr : int32; len : int }

let mask len =
  if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

let make ~addr ~len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: len outside 0..32";
  { addr = Int32.logand addr (mask len); len }

let of_string s =
  match String.index_opt s '/' with
  | None -> make ~addr:(Pkt.Header.addr_of_string s) ~len:32
  | Some i ->
      let addr = Pkt.Header.addr_of_string (String.sub s 0 i) in
      let len =
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some l -> l
        | None -> invalid_arg (Printf.sprintf "Prefix.of_string: %S" s)
      in
      make ~addr ~len

let to_string p =
  Printf.sprintf "%s/%d" (Pkt.Header.addr_to_string p.addr) p.len

let matches p a = Int32.logand a (mask p.len) = p.addr
let any = { addr = 0l; len = 0 }
