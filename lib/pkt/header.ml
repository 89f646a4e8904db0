type proto = Tcp | Udp | Icmp | Other of int

type t = { src : int32; dst : int32; proto : proto; sport : int; dport : int }

let addr_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 -> Int32.of_int v
        | _ -> invalid_arg (Printf.sprintf "Header.addr_of_string: %S" s)
      in
      let ( <|> ) hi lo = Int32.logor (Int32.shift_left hi 8) lo in
      octet a <|> octet b <|> octet c <|> octet d
  | _ -> invalid_arg (Printf.sprintf "Header.addr_of_string: %S" s)

let addr_to_string a =
  let octet shift =
    Int32.to_int (Int32.logand (Int32.shift_right_logical a shift) 0xffl)
  in
  Printf.sprintf "%d.%d.%d.%d" (octet 24) (octet 16) (octet 8) (octet 0)

let check_port p =
  if p < 0 || p > 65535 then invalid_arg "Header.make: port out of range"

let make ~src ~dst ~proto ?(sport = 0) ?(dport = 0) () =
  check_port sport;
  check_port dport;
  { src = addr_of_string src; dst = addr_of_string dst; proto; sport; dport }

let proto_number = function
  | Tcp -> 6
  | Udp -> 17
  | Icmp -> 1
  | Other n -> n

let equal a b = a = b
