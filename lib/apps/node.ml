(* Shared node representation for the overlay applications: an endpoint
   plus its position on the identifier ring, with the wire encoding used in
   RPC arguments. *)

module Codec = Splay_runtime.Codec

type t = { id : int; addr : Addr.t }

let make ~id ~addr = { id; addr }

let equal a b = a.id = b.id && Addr.equal a.addr b.addr

let compare_by_id a b = Int.compare a.id b.id

let to_value n =
  Codec.Assoc [ ("id", Codec.Int n.id); ("a", Codec.String (Addr.to_string n.addr)) ]

let bad_address () = raise (Codec.Parse_error "bad node address")

(* The decimal number in [s.[i] .. s.[stop - 1]], accumulated onto [acc]:
   ASCII digits only, so no sign, radix prefix or underscore slips
   through, and no overflow. *)
let rec decimal s i stop acc =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if acc > (max_int - d) / 10 then bad_address ();
        decimal s (i + 1) stop ((acc * 10) + d)
    | _ -> bad_address ()

(* "host:port", each part one or more digits. *)
let addr_of_string s =
  let len = String.length s in
  match String.index s ':' with
  | c when c > 0 && c < len - 1 -> Addr.make (decimal s 0 c 0) (decimal s (c + 1) len 0)
  | _ | (exception Not_found) -> bad_address ()

let of_value v =
  let id = Codec.to_int (Codec.member "id" v) in
  { id; addr = addr_of_string (Codec.to_string (Codec.member "a" v)) }

let opt_to_value = function None -> Codec.Null | Some n -> to_value n

let opt_of_value = function Codec.Null -> None | v -> Some (of_value v)

let to_string n = Printf.sprintf "%d@%s" n.id (Addr.to_string n.addr)

(* Derive this instance's identity: a random ring position (as the paper's
   Chord does) or a hash of ip:port (as deployed DHTs do). *)
let self ?(how = `Hash) ~bits (env : Splay_runtime.Env.t) =
  let id =
    match how with
    | `Random -> Splay_sim.Rng.int env.Splay_runtime.Env.env_rng (Splay_runtime.Misc.pow2 bits)
    | `Hash -> Splay_runtime.Crypto.hash_to_id (Addr.to_string env.Splay_runtime.Env.me) ~bits
  in
  { id; addr = env.Splay_runtime.Env.me }
