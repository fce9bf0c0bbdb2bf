module Codec = Splay_runtime.Codec
module Rpc = Splay_runtime.Rpc
module Env = Splay_runtime.Env
module Misc = Splay_runtime.Misc
module Rng = Splay_sim.Rng

type config = {
  bits : int;
  b : int;
  leaf_size : int;
  stabilize_interval : float;
  rpc_timeout : float;
  suspect_threshold : int;
  join_delay_per_position : float;
  proximity : bool;
  per_hop_overhead : float;
  id_assignment : [ `Random | `Hash ];
}

let default_config =
  {
    bits = 32;
    b = 4;
    leaf_size = 16;
    stabilize_interval = 5.0;
    rpc_timeout = 30.0;
    suspect_threshold = 2;
    join_delay_per_position = 0.2;
    proximity = true;
    per_hop_overhead = 0.0;
    id_assignment = `Hash;
  }

let digits cfg = cfg.bits / cfg.b

type node = {
  cfg : config;
  env : Env.t;
  self : Node.t;
  mutable left : Node.t list; (* counter-clockwise, nearest first *)
  mutable right : Node.t list; (* clockwise, nearest first *)
  table : Node.t option array array; (* rows x 2^b *)
  misses : (int, int) Hashtbl.t;
  (* death certificates: recently pruned ids are not re-learned from
     gossip until the certificate expires, or stale leafset exchanges
     would reinject them forever *)
  dead : (int, float) Hashtbl.t;
  mutable n_suspected : int;
  mutable bootstrap : Addr.t option;
  p_rng : Rng.t;
}

let id t = t.self.Node.id
let addr t = t.self.Node.addr
let leafset t = t.left @ t.right
let is_stopped t = Env.is_stopped t.env
let suspected_count t = t.n_suspected

let table_entries t =
  Array.to_list t.table
  |> List.concat_map (fun row -> Array.to_list row |> List.filter_map Fun.id)

let modulus t = Misc.pow2 t.cfg.bits
(* [Misc.ring_distance] for a power-of-two modulus: a mask, not a division. *)
let dist_cw t a b = (b - a) land (modulus t - 1)
let dist t a b = Int.min (dist_cw t a b) (dist_cw t b a)

let digit t key row = (key lsr (t.cfg.bits - (t.cfg.b * (row + 1)))) land ((1 lsl t.cfg.b) - 1)

let rec shared_prefix_from t nd a b row =
  if row < nd && digit t a row = digit t b row then shared_prefix_from t nd a b (row + 1) else row

let shared_prefix t a b = shared_prefix_from t (digits t.cfg) a b 0

let rtt t n = Net.base_rtt t.env.Env.net t.self.Node.addr.Addr.host n.Node.addr.Addr.host

let all_known t =
  List.sort_uniq Node.compare_by_id (t.self :: (leafset t @ table_entries t))

(* Incorporate a peer: leafset halves stay sorted by ring distance and
   bounded; the routing-table slot prefers the lower-RTT candidate when
   proximity-aware construction is on (the locality optimization FreePastry
   also implements). *)
let now t = Splay_sim.Engine.now (Env.engine t.env)

let certified_dead t n =
  match Hashtbl.find t.dead n.Node.id with
  | exception Not_found -> false
  | expiry when now t < expiry -> true
  | _ ->
      Hashtbl.remove t.dead n.Node.id;
      false

(* [learn] and [decide] run for every Pastry message, so the helpers below
   walk the leafset halves in place: no closures, no sorting, no copies. *)

let rec mem n = function [] -> false | x :: rest -> Node.equal x n || mem n rest

(* Distance from self to [id] going away from self on one side of the
   ring: clockwise for the right half, counter-clockwise for the left. *)
let side_dist t ~right id =
  if right then dist_cw t t.self.Node.id id else dist_cw t id t.self.Node.id

(* Index of the first member at least [d] away: where a node at distance
   [d] goes in a half sorted nearest first. *)
let rec insert_pos t ~right d i = function
  | x :: rest when side_dist t ~right x.Node.id < d -> insert_pos t ~right d (i + 1) rest
  | _ -> i

(* [n] at index [pos] of [lst], keeping the first [keep] members. *)
let rec insert_at n pos keep lst =
  if pos = 0 then n :: Misc.take (keep - 1) lst
  else match lst with x :: rest -> x :: insert_at n (pos - 1) (keep - 1) rest | [] -> [ n ]

(* Equal to [List.sort] by distance (stable, so [n] lands before the
   members it ties with) on [n :: lst], then [take half]; [lst] comes back
   physically unchanged when [n] is already in it or falls past [half]. *)
let insert_half t ~right ~half n lst =
  if mem n lst then lst
  else
    let pos = insert_pos t ~right (side_dist t ~right n.Node.id) 0 lst in
    if pos >= half then lst else insert_at n pos half lst

let learn t n =
  if (not (Node.equal n t.self)) && n.Node.id <> t.self.Node.id && not (certified_dead t n)
  then begin
    let half = t.cfg.leaf_size / 2 in
    t.right <- insert_half t ~right:true ~half n t.right;
    t.left <- insert_half t ~right:false ~half n t.left;
    let row = shared_prefix t t.self.Node.id n.Node.id in
    if row < digits t.cfg then begin
      let col = digit t n.Node.id row in
      match t.table.(row).(col) with
      | None ->
          (* routing state costs real memory; Fig. 8's slight growth *)
          (try Splay_runtime.Sandbox.alloc t.env.Env.sandbox 2048
           with Splay_runtime.Sandbox.Violation _ -> ());
          t.table.(row).(col) <- Some n
      | Some cur ->
          if (not (Node.equal cur n)) && t.cfg.proximity && rtt t n < rtt t cur then
            t.table.(row).(col) <- Some n
    end
  end

let prune t n =
  let keep x = not (Node.equal x n) in
  t.left <- List.filter keep t.left;
  t.right <- List.filter keep t.right;
  Array.iter
    (fun row ->
      Array.iteri
        (fun i e ->
          match e with
          | Some x when Node.equal x n ->
              row.(i) <- None;
              Splay_runtime.Sandbox.free t.env.Env.sandbox 2048
          | _ -> ())
        row)
    t.table

let suspect t n =
  let k = 1 + Option.value ~default:0 (Hashtbl.find_opt t.misses n.Node.id) in
  if k >= t.cfg.suspect_threshold then begin
    Hashtbl.remove t.misses n.Node.id;
    Hashtbl.replace t.dead n.Node.id (now t +. (10.0 *. t.cfg.stabilize_interval));
    t.n_suspected <- t.n_suspected + 1;
    prune t n
  end
  else Hashtbl.replace t.misses n.Node.id k

let acall t n proc args =
  match Rpc.a_call t.env n.Node.addr ~timeout:t.cfg.rpc_timeout proc args with
  | Ok v ->
      Hashtbl.remove t.misses n.Node.id;
      Ok v
  | Error _ ->
      suspect t n;
      Error ()

let rec last_id default = function [] -> default | x :: rest -> last_id x.Node.id rest

(* Is the key within the span of our leafset? If so the owner is the
   numerically closest node among leafset + self. *)
let leafset_covers t key =
  match (t.left, t.right) with
  | [], [] -> true
  | _ ->
      let leftmost = last_id t.self.Node.id t.left in
      let rightmost = last_id t.self.Node.id t.right in
      Misc.between key leftmost rightmost ~modulus:(modulus t) ~incl_lo:true ~incl_hi:true

(* The member of [nodes] closest to [key] that is not in [excluded], or
   [best] when none is strictly closer; [bd] is [best]'s distance. *)
let rec closest_usable t key excluded best bd = function
  | [] -> best
  | n :: rest ->
      let d = dist t n.Node.id key in
      if d < bd && not (mem n excluded) then
        closest_usable t key excluded n d rest
      else closest_usable t key excluded best bd rest

type decision = Deliver | Forward of Node.t

(* The Pastry routing decision. [excluded] lists next hops that already
   failed for this message (dead, or reported no route), so alternates are
   tried instead of looping on them. *)
let decide ?(excluded = []) t key =
  if leafset_covers t key then begin
    let self = t.self in
    let best = closest_usable t key excluded self (dist t self.Node.id key) t.left in
    let owner = closest_usable t key excluded best (dist t best.Node.id key) t.right in
    if Node.equal owner self then Deliver else Forward owner
  end
  else begin
    let l = shared_prefix t t.self.Node.id key in
    let slot =
      match if l < digits t.cfg then t.table.(l).(digit t key l) else None with
      | Some n when not (mem n excluded) -> Some n
      | _ -> None
    in
    match slot with
    | Some n -> Forward n
    | None ->
        (* rare case: any known node with at least as long a prefix and
           numerically closer to the key *)
        let my_d = dist t t.self.Node.id key in
        let better n =
          (not (mem n excluded))
          && (not (Node.equal n t.self))
          && shared_prefix t n.Node.id key >= l
          && dist t n.Node.id key < my_d
        in
        (match List.filter better (all_known t) with
        | [] -> Deliver (* best effort: nobody better is known *)
        | cands -> Forward (closest_usable t key [] t.self my_d cands))
  end

(* The one replica-placement rule: routing answers it at delivery and
   warm starts read it off the owner directly. A plain lookup (k = 1)
   needs no sort. *)
let replica_set t key ~k =
  if k <= 1 then [ t.self ]
  else
    let d n = (dist t n.Node.id key, n.Node.id) in
    t.self :: Misc.take (k - 1) (List.sort_uniq (fun a b -> compare (d a) (d b)) (leafset t))

let max_hops = 64

(* Route one message, retrying alternates as next hops fail. The owner
   answers its [replica_set]. A [k = 1] route (a plain lookup) sends no
   [k] and is answered with the owner alone. *)
let rec route t key ~k ~hops =
  if hops > max_hops then None
  else begin
    let args = [ Codec.Int key; Codec.Int (hops + 1) ] @ if k = 1 then [] else [ Codec.Int k ] in
    let rec attempts n excluded =
      if n = 0 then None
      else
        match decide t ~excluded key with
        | Deliver -> Some (replica_set t key ~k, hops)
        | Forward nx -> (
            match acall t nx "p.route" args with
            | Ok v -> (
                let h () = Codec.to_int (Codec.member "hops" v) in
                match Codec.member "node" v with
                | Codec.Null -> attempts (n - 1) (nx :: excluded)
                | Codec.List l -> Some (List.map Node.of_value l, h ())
                | nv -> Some ([ Node.of_value nv ], h ()))
            | Error () -> attempts (n - 1) (nx :: excluded))
    in
    attempts 6 []
  end

and handle_route t args =
  let key, hops, k =
    match args with
    | [ key; hops ] -> (key, hops, 1)
    | [ key; hops; k ] -> (key, hops, Codec.to_int k)
    | _ -> failwith "p.route: bad arguments"
  in
  if t.cfg.per_hop_overhead > 0.0 then begin
    let m = Testbed.service_mult (Net.testbed t.env.Env.net) t.self.Node.addr.Addr.host in
    Env.sleep (t.cfg.per_hop_overhead *. m)
  end;
  match route t (Codec.to_int key) ~k ~hops:(Codec.to_int hops) with
  | Some (set, h) ->
      let node =
        match set with [ n ] -> Node.to_value n | l -> Codec.List (List.map Node.to_value l)
      in
      Codec.Assoc [ ("node", node); ("hops", Codec.Int h) ]
  | None -> Codec.Assoc [ ("node", Codec.Null); ("hops", Codec.Int 0) ]

let lookup_set t key ~k = route t key ~k ~hops:0
let lookup t key = Option.map (fun (set, h) -> (List.hd set, h)) (lookup_set t key ~k:1)

(* Join: the request travels from the bootstrap node towards the
   newcomer's id; every hop contributes its leafset and the table rows the
   newcomer will need; the newcomer learns everything and announces
   itself. *)
let join_payload t xid =
  let l = shared_prefix t t.self.Node.id xid in
  let rows =
    List.concat
      (List.init (min (l + 1) (digits t.cfg)) (fun r ->
           Array.to_list t.table.(r) |> List.filter_map Fun.id))
  in
  t.self :: (rows @ leafset t)

let handle_join t args =
  match args with
  | [ xid_v; hops_v ] ->
      let xid = Codec.to_int xid_v and hops = Codec.to_int hops_v in
      let mine = join_payload t xid in
      let deeper =
        if hops > max_hops then []
        else
          match decide t xid with
          | Deliver -> []
          | Forward n -> (
              match acall t n "p.join" [ Codec.Int xid; Codec.Int (hops + 1) ] with
              | Ok (Codec.List l) -> List.map Node.of_value l
              | Ok _ | Error () -> [])
      in
      Codec.List (List.map Node.to_value (mine @ deeper))
  | _ -> failwith "p.join: bad arguments"

let announce t =
  let targets = List.filter (fun n -> not (Node.equal n t.self)) (all_known t) in
  List.iter
    (fun n -> ignore (acall t n "p.announce" [ Node.to_value t.self ]))
    targets

let join t bootstrap =
  match acall t bootstrap "p.join" [ Codec.Int t.self.Node.id; Codec.Int 0 ] with
  | Ok (Codec.List l) ->
      List.iter (fun v -> learn t (Node.of_value v)) l;
      announce t
  | Ok _ | Error () -> ()

(* Periodic maintenance: exchange leafsets with a random neighbor, check
   the closest ring neighbors are alive, probe a few table entries — and
   occasionally re-contact the original bootstrap node, which is what lets
   two halves of a healed partition find each other again instead of
   living on as split-brain rings. *)
let stabilize t =
  (match t.bootstrap with
  | Some b when (not (Addr.equal b t.self.Node.addr)) && Rng.chance t.p_rng 0.2 -> (
      match Rpc.a_call t.env b ~timeout:t.cfg.rpc_timeout "p.leafset" [] with
      | Ok (Codec.List l) -> List.iter (fun v -> learn t (Node.of_value v)) l
      | Ok _ | Error _ -> ())
  | _ -> ());
  (match leafset t with
  | [] -> ()
  | leaves -> (
      let peer = Rng.pick_list t.p_rng leaves in
      match acall t peer "p.leafset" [] with
      | Ok (Codec.List l) -> List.iter (fun v -> learn t (Node.of_value v)) l
      | Ok _ | Error () -> ()));
  (match t.left with p :: _ -> if not (Rpc.ping t.env ~timeout:t.cfg.rpc_timeout p.Node.addr) then suspect t p | [] -> ());
  (match t.right with s :: _ -> if not (Rpc.ping t.env ~timeout:t.cfg.rpc_timeout s.Node.addr) then suspect t s | [] -> ());
  (* also probe random leafset members: failures further out in the
     leafset must be detected faster than gossip reinjects them *)
  (match leafset t with
  | [] -> ()
  | leaves ->
      for _ = 1 to min 4 (List.length leaves) do
        let n = Rng.pick_list t.p_rng leaves in
        if not (Rpc.ping t.env ~timeout:t.cfg.rpc_timeout n.Node.addr) then suspect t n
      done);
  match table_entries t with
  | [] -> ()
  | entries ->
      (* probe a few random entries per round so dead table slots are
         repaired within a handful of periods *)
      for _ = 1 to min 3 (List.length entries) do
        let n = Rng.pick_list t.p_rng entries in
        if not (Rpc.ping t.env ~timeout:t.cfg.rpc_timeout n.Node.addr) then suspect t n
      done

let serve t =
  Rpc.server t.env
    [
      ("p.route", handle_route t);
      ("p.join", handle_join t);
      ("p.leafset", fun _ -> Codec.List (List.map Node.to_value (t.self :: leafset t)));
      ( "p.announce",
        fun args ->
          (match args with
          | [ nv ] -> learn t (Node.of_value nv)
          | _ -> failwith "p.announce: bad arguments");
          Codec.Null );
    ]

let app ?(config = default_config) ~register env =
  if config.bits mod config.b <> 0 then invalid_arg "Pastry: bits must be a multiple of b";
  let self = Node.self ~how:config.id_assignment ~bits:config.bits env in
  let t =
    {
      cfg = config;
      env;
      self;
      left = [];
      right = [];
      table = Array.make_matrix (digits config) (1 lsl config.b) None;
      misses = Hashtbl.create 16;
      dead = Hashtbl.create 16;
      n_suspected = 0;
      bootstrap = (match env.Env.nodes with b :: _ -> Some b | [] -> None);
      p_rng = Rng.split env.Env.env_rng;
    }
  in
  register t;
  serve t;
  ignore (Env.periodic env config.stabilize_interval (fun () -> stabilize t));
  Env.sleep (Float.of_int env.Env.position *. config.join_delay_per_position);
  match env.Env.nodes with
  | rendezvous :: _ when env.Env.position > 1 -> join t (Node.make ~id:0 ~addr:rendezvous)
  | _ -> ()

(* Warm start, mirroring [Chord.assemble]: build the converged routing
   state directly from the full membership instead of running O(n)
   serialized joins plus stabilization rounds. The leafset halves are the
   [leaf_size/2] nearest ring neighbours on each side; routing-table slot
   (row [r], column [c]) covers ids sharing self's top [r] digits with
   digit [c] next, so it gets the first ring member inside that id range
   (binary search) — a fixed point of [learn] modulo proximity
   tie-breaking, which only affects locality, not correctness. No
   periodic processes are started and no [Sandbox] accounting is done:
   the assembled ring exists to serve application traffic (the DHT store,
   the web cache) at node counts where join-protocol convergence is the
   dominant — and irrelevant — cost. *)
let assemble ?(config = default_config) ~register ~ring ~index env =
  if config.bits mod config.b <> 0 then invalid_arg "Pastry: bits must be a multiple of b";
  let n = Array.length ring in
  if n = 0 then invalid_arg "Pastry.assemble: empty ring";
  if index < 0 || index >= n then invalid_arg "Pastry.assemble: index out of range";
  let self = ring.(index) in
  let half = min (config.leaf_size / 2) (n - 1) in
  let right = List.init half (fun k -> ring.((index + k + 1) mod n)) in
  let left = List.init half (fun k -> ring.((index + n - k - 1) mod n)) in
  (* first ring member with id >= key, or None past the top (no wrap:
     table ranges never cross zero) *)
  let first_at_or_after key =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ring.(mid).Node.id < key then lo := mid + 1 else hi := mid
    done;
    if !lo = n then None else Some ring.(!lo)
  in
  let nd = digits config in
  let cols = 1 lsl config.b in
  let table =
    Array.init nd (fun r ->
        let span = config.bits - (config.b * (r + 1)) in
        let prefix = self.Node.id lsr (span + config.b) in
        let own = (self.Node.id lsr span) land (cols - 1) in
        Array.init cols (fun c ->
            if c = own then None
            else
              let base = ((prefix lsl config.b) lor c) lsl span in
              match first_at_or_after base with
              | Some m when m.Node.id < base + (1 lsl span) -> Some m
              | Some _ | None -> None))
  in
  let t =
    {
      cfg = config;
      env;
      self;
      left;
      right;
      table;
      misses = Hashtbl.create 16;
      dead = Hashtbl.create 16;
      n_suspected = 0;
      bootstrap = None;
      (* private stream derived from the id, not split from [env_rng]:
         assemble must not perturb the env's stream relative to runs that
         don't use it *)
      p_rng = Rng.create (self.Node.id lxor 0x7A57E1);
    }
  in
  register t;
  serve t

(* {2 Hooks for layered applications} *)

let next_hop t key = match decide t key with Deliver -> None | Forward n -> Some n
let report_failure t n = suspect t n
let node_env t = t.env
let self_node t = t.self
let config_of t = t.cfg
