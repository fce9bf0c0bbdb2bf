type host_id = int

type t = { host : host_id; port : int }

let make host port = { host; port }

let compare a b =
  let c = Int.compare a.host b.host in
  if c <> 0 then c else Int.compare a.port b.port

let equal a b = compare a b = 0

let hash a = (a.host * 65_537) + a.port

let rec decimal_length n = if n < 10 then 1 else 1 + decimal_length (n / 10)

(* Writes digits backwards from [last]; [n] >= 0. *)
let rec put_decimal b last n =
  Bytes.unsafe_set b last (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then put_decimal b (last - 1) (n / 10)

(* "host:port" straight into one string: node ids are hashed from it and
   every overlay message carries it, so it stays off Printf. *)
let to_string a =
  if a.host < 0 || a.port < 0 then Printf.sprintf "%d:%d" a.host a.port
  else begin
    let lh = decimal_length a.host in
    let len = lh + 1 + decimal_length a.port in
    let b = Bytes.create len in
    put_decimal b (lh - 1) a.host;
    Bytes.unsafe_set b lh ':';
    put_decimal b (len - 1) a.port;
    Bytes.unsafe_to_string b
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)
