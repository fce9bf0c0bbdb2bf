module Codec = Splay_runtime.Codec
module Rpc = Splay_runtime.Rpc
module Env = Splay_runtime.Env
module Crypto = Splay_runtime.Crypto
module Sandbox = Splay_runtime.Sandbox
module Rng = Splay_sim.Rng
module Ivar = Splay_sim.Ivar

type config = {
  replicas : int;
  republish_interval : float;
  entry_ttl : float;
  rpc_timeout : float;
  serve_cost : float;
  batching : bool;
  p2c : bool;
  admission : bool;
  token_rate : float;
  token_burst : float;
  slo_budget : float;
}

let default_config =
  {
    replicas = 3;
    republish_interval = 30.0;
    entry_ttl = 120.0;
    rpc_timeout = 10.0;
    serve_cost = 0.0;
    batching = false;
    p2c = false;
    admission = false;
    token_rate = 2000.0;
    token_burst = 64.0;
    slo_budget = 0.25;
  }

type entry = { value : string; mutable refreshed_at : float }

(* One unit of owner-side work. A [Fetch] carries every reader waiting on
   the key: under [batching], concurrent gets for the same key coalesce
   into one service slot and the reply fans out to all of them. *)
type job =
  | Store of { key : string; value : string; done_ : unit Ivar.t }
  | Fetch of { key : string; waiters : string option Ivar.t list ref }

type t = {
  cfg : config;
  p : Pastry.node;
  env : Env.t;
  store : (string, entry) Hashtbl.t;
  (* owner-side serving state (active only when [serve_cost > 0]) *)
  queue : job Queue.t;
  mutable worker : bool;
  inflight : (string, string option Ivar.t list ref) Hashtbl.t;
  mutable tokens : float;
  mutable refilled_at : float;
  (* client-side replica selection state *)
  ewma : (int, float) Hashtbl.t;
  mutable rtt_hint : (Addr.t -> float option) option;
  c_rng : Rng.t;
  (* serving counters (observability) *)
  mutable n_served : int;
  mutable n_shed : int;
  mutable n_batched : int;
}

let stored_entries t = Hashtbl.length t.store
let stored_bytes t = Hashtbl.fold (fun _ e acc -> acc + String.length e.value) t.store 0
let served_count t = t.n_served
let shed_count t = t.n_shed
let batched_count t = t.n_batched
let queue_depth t = Queue.length t.queue
let set_rtt_estimator t f = t.rtt_hint <- Some f

let now t = Env.now t.env

let key_id t key = Crypto.hash_to_id key ~bits:(Pastry.config_of t.p).Pastry.bits

(* Local (owner-side) operations, exposed over RPC. *)

let store_local t ~key ~value =
  (match Hashtbl.find_opt t.store key with
  | Some old ->
      Sandbox.free t.env.Env.sandbox (String.length old.value);
      Hashtbl.remove t.store key
  | None -> ());
  (try Sandbox.alloc t.env.Env.sandbox (String.length value)
   with Sandbox.Violation _ -> ());
  Hashtbl.replace t.store key { value; refreshed_at = now t }

let fetch_local t ~key =
  match Hashtbl.find_opt t.store key with
  | Some e when now t -. e.refreshed_at <= t.cfg.entry_ttl -> Some e.value
  | Some e ->
      Hashtbl.remove t.store key;
      Sandbox.free t.env.Env.sandbox (String.length e.value);
      None
  | None -> None

let delete_local t ~key =
  match Hashtbl.find_opt t.store key with
  | Some e ->
      Hashtbl.remove t.store key;
      Sandbox.free t.env.Env.sandbox (String.length e.value)
  | None -> ()

(* {2 Owner-side serving fast path}

   With [serve_cost > 0] every store/fetch costs service time at the
   owner, so requests queue. The queue is drained by a single worker
   fiber, spawned lazily on the empty->nonempty transition and exiting
   when the queue drains — an idle owner holds no live fiber and the
   engine's event queue empties cleanly at end of run.

   Admission control ([admission]) sheds work at enqueue time with a
   distinguished fast-reject reply instead of letting the queue grow
   without bound: a token bucket caps the sustained accept rate, and the
   queue-delay budget ([slo_budget]) rejects requests that would wait
   longer than the SLO even if accepted — overload degrades into fast
   rejects the client can retry elsewhere, not into collapse. *)

let admit t =
  if not t.cfg.admission then true
  else begin
    let n = now t in
    t.tokens <-
      Float.min t.cfg.token_burst (t.tokens +. ((n -. t.refilled_at) *. t.cfg.token_rate));
    t.refilled_at <- n;
    let backlog = Float.of_int (Queue.length t.queue) *. t.cfg.serve_cost in
    if t.tokens >= 1.0 && backlog <= t.cfg.slo_budget then begin
      t.tokens <- t.tokens -. 1.0;
      true
    end
    else begin
      t.n_shed <- t.n_shed + 1;
      false
    end
  end

let service_pause t =
  let m =
    Testbed.service_mult (Net.testbed t.env.Env.net) (Pastry.self_node t.p).Node.addr.Addr.host
  in
  Env.sleep (t.cfg.serve_cost *. m)

let rec drain t =
  match Queue.take_opt t.queue with
  | None -> t.worker <- false
  | Some job ->
      (match job with
      | Fetch { key; waiters } ->
          (* unhook before the service pause: gets arriving while this one
             is in service start the next batch rather than missing the
             reply fan-out *)
          Hashtbl.remove t.inflight key;
          service_pause t;
          let v = fetch_local t ~key in
          let ws = !waiters in
          let k = List.length ws in
          t.n_served <- t.n_served + k;
          if k > 1 then t.n_batched <- t.n_batched + (k - 1);
          List.iter (fun iv -> Ivar.fill iv v) ws
      | Store { key; value; done_ } ->
          service_pause t;
          store_local t ~key ~value;
          t.n_served <- t.n_served + 1;
          Ivar.fill done_ ());
      drain t

let kick t =
  if not t.worker then begin
    t.worker <- true;
    ignore (Env.thread t.env ~name:"kv-worker" (fun () -> drain t))
  end

(* Blocking enqueue of a fetch; [`Shed] is the fast-reject path. *)
let queue_fetch t ~key =
  match (if t.cfg.batching then Hashtbl.find_opt t.inflight key else None) with
  | Some ws ->
      (* coalesce: ride the already-queued service slot for this key *)
      let iv = Ivar.create () in
      ws := iv :: !ws;
      `Value (Ivar.read iv)
  | None ->
      if not (admit t) then `Shed
      else begin
        let iv = Ivar.create () in
        let ws = ref [ iv ] in
        if t.cfg.batching then Hashtbl.replace t.inflight key ws;
        Queue.push (Fetch { key; waiters = ws }) t.queue;
        kick t;
        `Value (Ivar.read iv)
      end

let queue_store t ~key ~value =
  if not (admit t) then `Shed
  else begin
    let iv = Ivar.create () in
    Queue.push (Store { key; value; done_ = iv }) t.queue;
    kick t;
    Ivar.read iv;
    `Stored
  end

(* {2 Client-side operations} *)

(* One route answers the whole replica set. *)
let replicas t ~key =
  match Pastry.lookup_set t.p (key_id t key) ~k:t.cfg.replicas with
  | Some (set, _) -> set
  | None -> []

let warm_put stores ~key ~value =
  let at n = stores.(n.Node.addr.Addr.host) in
  let kid = key_id stores.(0) key in
  let rec owner s = match Pastry.next_hop s.p kid with None -> s | Some n -> owner (at n) in
  let o = owner stores.(0) in
  List.iter (fun n -> store_local (at n) ~key ~value) (Pastry.replica_set o.p kid ~k:o.cfg.replicas)

(* EWMA of observed fetch round-trips per host — the fallback latency
   estimate for power-of-two-choices when no coordinate hook is set. An
   unknown host estimates 0 so fresh replicas get explored. *)
let observe_rtt t addr dt =
  let v =
    match Hashtbl.find_opt t.ewma addr.Addr.host with
    | None -> dt
    | Some p -> (0.8 *. p) +. (0.2 *. dt)
  in
  Hashtbl.replace t.ewma addr.Addr.host v

let estimate t addr =
  let ewma () = Option.value ~default:0.0 (Hashtbl.find_opt t.ewma addr.Addr.host) in
  match t.rtt_hint with
  | Some f -> ( match f addr with Some r -> r | None -> ewma ())
  | None -> ewma ()

let put_r t ~key ~value =
  let acks = ref 0 and sheds = ref 0 in
  List.iter
    (fun owner ->
      if Node.equal owner (Pastry.self_node t.p) then begin
        store_local t ~key ~value;
        incr acks
      end
      else
        match
          Rpc.a_call t.env owner.Node.addr ~timeout:t.cfg.rpc_timeout "kv.store"
            [ Codec.String key; Codec.String value ]
        with
        | Ok (Codec.Bool false) ->
            (* shed by admission control: no ack, but the owner is
               healthy — do not feed the failure detector *)
            incr sheds
        | Ok _ -> incr acks
        | Error _ -> Pastry.report_failure t.p owner)
    (replicas t ~key);
  (!acks, !sheds)

let put t ~key ~value = fst (put_r t ~key ~value)

(* Fetch from one replica. A shed reply arrives fast but signals
   overload: it sets [shed] and is penalized in the EWMA by a full SLO
   budget so power-of-two-choices steers the next draws away from the
   hot node. *)
let fetch_from t ~key ~shed owner =
  if Node.equal owner (Pastry.self_node t.p) then fetch_local t ~key
  else begin
    let t0 = now t in
    match
      Rpc.a_call t.env owner.Node.addr ~timeout:t.cfg.rpc_timeout "kv.fetch"
        [ Codec.String key ]
    with
    | Ok (Codec.String v) ->
        observe_rtt t owner.Node.addr (now t -. t0);
        Some v
    | Ok (Codec.Bool false) ->
        observe_rtt t owner.Node.addr (now t -. t0 +. t.cfg.slo_budget);
        shed := true;
        None
    | Ok _ ->
        observe_rtt t owner.Node.addr (now t -. t0);
        None
    | Error _ ->
        Pastry.report_failure t.p owner;
        None
  end

let get_r t ~key =
  (* a shed anywhere along the fallback chain marks the final verdict:
     "no value" because of overload reads differently from a clean miss *)
  let shed = ref false in
  let set = Array.of_list (replicas t ~key) in
  let r = Array.length set in
  let all = List.init r Fun.id in
  (* p2c samples two distinct members and tries the estimated-closer /
     less-loaded one first; the fallback walks the rest of the set in
     order, with no further routing *)
  let order =
    if t.cfg.p2c && r >= 2 then begin
      let i = Rng.int t.c_rng r in
      let j = (i + 1 + Rng.int t.c_rng (r - 1)) mod r in
      let est x =
        if Node.equal set.(x) (Pastry.self_node t.p) then 0.0 else estimate t set.(x).Node.addr
      in
      let first, second = if est j < est i then (j, i) else (i, j) in
      first :: second :: List.filter (fun x -> x <> i && x <> j) all
    end
    else all
  in
  match List.find_map (fun x -> fetch_from t ~key ~shed set.(x)) order with
  | Some v -> `Value v
  | None -> if !shed then `Shed else `Miss

let get t ~key = match get_r t ~key with `Value v -> Some v | `Shed | `Miss -> None

let delete t ~key =
  let acks = ref 0 in
  List.iter
    (fun owner ->
      if Node.equal owner (Pastry.self_node t.p) then begin
        delete_local t ~key;
        incr acks
      end
      else
        match
          Rpc.a_call t.env owner.Node.addr ~timeout:t.cfg.rpc_timeout "kv.delete"
            [ Codec.String key ]
        with
        | Ok _ -> incr acks
        | Error _ -> ())
    (replicas t ~key);
  !acks

(* Republish: push every held entry back to its key's current replica
   set; drop entries nobody has refreshed within the TTL. The churned
   ring converges to holding each value at its live owners. *)
let republish t =
  let entries = Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.store [] in
  List.iter
    (fun (key, e) ->
      if now t -. e.refreshed_at > t.cfg.entry_ttl then delete_local t ~key
      else
        ignore (put t ~key ~value:e.value))
    entries

let create ?(config = default_config) p =
  let most = ((Pastry.config_of p).Pastry.leaf_size / 2) + 1 in
  if config.replicas < 1 || config.replicas > most then
    invalid_arg (Printf.sprintf "Dht_store.create: replicas must be within 1..%d" most);
  let env = Pastry.node_env p in
  let t =
    {
      cfg = config;
      p;
      env;
      store = Hashtbl.create 32;
      queue = Queue.create ();
      worker = false;
      inflight = Hashtbl.create 16;
      tokens = config.token_burst;
      refilled_at = 0.0;
      ewma = Hashtbl.create 16;
      rtt_hint = None;
      (* private stream derived from the node id, not split from env_rng:
         enabling p2c must not perturb any other component's draws *)
      c_rng = Rng.create ((Pastry.self_node p).Node.id lxor 0x2C00B5);
      n_served = 0;
      n_shed = 0;
      n_batched = 0;
    }
  in
  let serving = config.serve_cost > 0.0 in
  Rpc.add_handler env "kv.store" (fun args ->
      match args with
      | [ Codec.String key; Codec.String value ] ->
          if serving then
            match queue_store t ~key ~value with
            | `Stored -> Codec.Null
            | `Shed -> Codec.Bool false
          else begin
            store_local t ~key ~value;
            Codec.Null
          end
      | _ -> failwith "kv.store: bad arguments");
  Rpc.add_handler env "kv.fetch" (fun args ->
      match args with
      | [ Codec.String key ] ->
          if serving then
            match queue_fetch t ~key with
            | `Value (Some v) -> Codec.String v
            | `Value None -> Codec.Null
            | `Shed -> Codec.Bool false
          else (
            match fetch_local t ~key with Some v -> Codec.String v | None -> Codec.Null)
      | _ -> failwith "kv.fetch: bad arguments");
  Rpc.add_handler env "kv.delete" (fun args ->
      match args with
      | [ Codec.String key ] ->
          delete_local t ~key;
          Codec.Null
      | _ -> failwith "kv.delete: bad arguments");
  if config.republish_interval > 0.0 then
    ignore (Env.periodic env config.republish_interval (fun () -> republish t));
  t
