(** Pastry (Rowstron & Druschel) — prefix routing with a leafset and a
    locality-aware routing table.

    Functionally equivalent to the implementation compared against
    FreePastry in §5.3 of the SPLAY paper: [b]-bit digits (default 4, so 16
    columns), a leafset of [leaf_size] nodes (half on each side), routing
    tables built with proximity neighbor selection (each slot prefers the
    candidate with the lowest measured RTT), periodic leafset exchange, and
    repair of broken entries on failed RPCs. *)

type config = {
  bits : int; (** identifier length in bits (default 32) *)
  b : int; (** digit width (default 4: 16 columns, [bits/b] rows) *)
  leaf_size : int; (** total leafset entries (default 16) *)
  stabilize_interval : float;
  rpc_timeout : float;
  suspect_threshold : int;
  join_delay_per_position : float;
  proximity : bool; (** locality-aware table construction (ablation knob) *)
  per_hop_overhead : float;
      (** extra per-message processing cost (seconds), scaled by the host's
          contention multiplier — models heavyweight runtimes (the
          FreePastry baseline sets it; SPLAY's is 0) *)
  id_assignment : [ `Random | `Hash ];
}

val default_config : config

type node

val app : ?config:config -> register:(node -> unit) -> Env.t -> unit

val assemble :
  ?config:config -> register:(node -> unit) -> ring:Node.t array -> index:int -> Env.t -> unit
(** Warm-start this instance at position [index] of an already-converged
    overlay: [ring] is the complete membership sorted by id (ids unique),
    shared read-only across instances. Leafset halves are the nearest
    [leaf_size/2] ring neighbours per side and every routing-table slot
    is filled with a member of its prefix range when one exists, so
    routing behaves as after full convergence; the same RPC surface as
    {!app} is bound. No join traffic, no periodic maintenance — the form
    used by serving benchmarks at node counts where running the join
    protocol to convergence is infeasible. *)

val id : node -> int
val addr : node -> Addr.t
val leafset : node -> Node.t list
(** Left then right neighbors, nearest first in each half. *)

val table_entries : node -> Node.t list
val is_stopped : node -> bool
val suspected_count : node -> int

val lookup : node -> int -> (Node.t * int) option
(** Route to the node responsible for the key (numerically closest id).
    [Some (owner, hops)], [None] when routing broke down. Blocking. *)

val lookup_set : node -> int -> k:int -> (Node.t list * int) option
(** {!lookup} answering the owner's {!replica_set}: one route finds all
    [k] replicas. [lookup] is the [k = 1] case. Blocking. *)

val replica_set : node -> int -> k:int -> Node.t list
(** This node, then the [k - 1] leafset members numerically closest to
    the key (ties to the lower id): at the key's owner on a converged
    ring, the [k] nodes closest to the key while [k - 1 <= leaf_size/2]
    — PAST's replica placement. Pure (no network). *)

val learn : node -> Node.t -> unit
(** Incorporate a peer, as join replies, leafset exchanges and announces
    do: each leafset half keeps its [leaf_size/2] nearest members by ring
    distance on its side, nearest first, and the peer's routing-table slot
    is filled (or taken over by a lower-RTT candidate under [proximity]).
    Self and ids with a live death certificate are ignored. No network. *)

val digits : config -> int
(** Rows in the routing table ([bits / b]). *)

(** {1 Hooks for applications layered on Pastry} (Scribe, SplitStream, the
    cooperative web cache) *)

val next_hop : node -> int -> Node.t option
(** The routing decision for a key from this node: [Some n] to forward,
    [None] when this node is the key's owner. Pure (no network). *)

val report_failure : node -> Node.t -> unit
(** Tell Pastry a peer did not answer an application-level call, feeding
    the same suspicion/pruning machinery as Pastry's own traffic. *)

val node_env : node -> Env.t
val self_node : node -> Node.t
val config_of : node -> config
