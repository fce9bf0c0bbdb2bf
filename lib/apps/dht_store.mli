(** A replicated key-value store on Pastry — the "indexing service based on
    a DHT" of the paper's long-running-application use case (§1, §3.2).

    Replication follows PAST (Rowstron & Druschel): a key's [replicas]
    copies live on the nodes numerically closest to [hash(key)], so one
    route ({!Pastry.lookup_set}) finds them all and a reader falls back
    from one to the next without routing again. Storing nodes republish their entries periodically, so data
    migrates to the new closest nodes as the ring churns and expires when
    every holder is gone longer than the republish TTL.

    {2 Serving fast path}

    With [serve_cost > 0] each owner-side store/fetch occupies the node
    for that much service time (scaled by the host's contention
    multiplier) and requests queue behind a single worker — the model the
    open-loop serving benchmarks load to saturation. Three optimizations
    sit behind config toggles so they can be ablated:

    - [batching]: concurrent gets for the same key coalesce into one
      service slot, with the reply fanned out to every waiter;
    - [p2c]: {!get} samples two members of the replica set its one route
      returned and reads from the estimated-closer / less-loaded one (a coordinate hook via
      {!set_rtt_estimator} when available, else an EWMA of observed fetch
      round-trips, with shed replies penalized by a full SLO budget);
    - [admission]: owners shed at enqueue time — a token bucket caps the
      sustained accept rate and requests whose queueing delay would
      already exceed [slo_budget] get a distinguished fast-reject reply,
      which clients treat as a miss-at-replica (not a failure), so
      overload degrades instead of collapsing.

    All toggles default off and [serve_cost] defaults to 0, which is the
    original direct-call behaviour, bit for bit. *)

type config = {
  replicas : int; (** copies kept (default 3, at most [leaf_size/2 + 1]) *)
  republish_interval : float; (** default 30 s; [<= 0] disables republish *)
  entry_ttl : float; (** entries not republished for this long expire (default 120 s) *)
  rpc_timeout : float;
  serve_cost : float;
      (** owner-side service time per request, seconds (default 0: direct
          calls, no queue) *)
  batching : bool; (** coalesce same-key gets into one service slot *)
  p2c : bool; (** power-of-two-choices replica selection in {!get} *)
  admission : bool; (** token-bucket + SLO-budget shedding at the owner *)
  token_rate : float; (** sustained accepts per second (default 2000) *)
  token_burst : float; (** bucket depth (default 64) *)
  slo_budget : float; (** max acceptable queueing delay, seconds (default 0.25) *)
}

val default_config : config

type t

val create : ?config:config -> Pastry.node -> t
(** Layer the store over a Pastry instance (shared RPC endpoint). *)

val put : t -> key:string -> value:string -> int
(** Store the value; returns how many replicas acknowledged (0 means the
    put failed entirely). Blocking. *)

val put_r : t -> key:string -> value:string -> int * int
(** {!put} with the overload verdict: [(acks, sheds)] — how many replicas
    acknowledged and how many fast-rejected the write under admission
    control (healthy-but-overloaded, distinct from failed). *)

val get : t -> key:string -> string option
(** Read, falling back across replicas. Blocking. *)

val get_r : t -> key:string -> [ `Value of string | `Miss | `Shed ]
(** {!get} with the overload verdict: [`Shed] when no replica returned a
    value but at least one fast-rejected the read — the caller saw
    overload, not absence. *)

val delete : t -> key:string -> int
(** Remove from all reachable replicas; returns acknowledgements. *)

val warm_put : t array -> key:string -> value:string -> unit
(** Benchmark warm start: store the value where a routed {!put} lands —
    {!Pastry.replica_set} at the owner reached by following
    {!Pastry.next_hop} from [stores.(0)] — with no network traffic and
    no simulated time. [stores.(i)] must be the instance at host [i]. *)

val stored_entries : t -> int
(** Entries this node currently holds (observability). *)

val stored_bytes : t -> int

val set_rtt_estimator : t -> (Addr.t -> float option) -> unit
(** Install a latency-estimate hook for p2c replica selection (e.g. a
    Vivaldi coordinate distance). [None] for a peer falls back to the
    built-in EWMA. *)

val served_count : t -> int
(** Requests this owner completed through the serving queue. *)

val shed_count : t -> int
(** Requests fast-rejected by admission control. *)

val batched_count : t -> int
(** Extra waiters absorbed into coalesced fetches (0 without [batching]). *)

val queue_depth : t -> int
