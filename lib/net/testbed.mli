(** Host models for the three deployment environments of the paper.

    PlanetLab is modelled synthetically (no live network here): pairwise
    base delays come from 2-D virtual coordinates, per-message jitter is
    lognormal, and per-host responsiveness is a heavy-tailed service-time
    distribution calibrated against Figure 3 of the paper (17% of hosts
    answer a 20 KB probe within 250 ms; over 45% need more than 1 s).
    ModelNet hosts attach to a {!Topology.t} transit-stub graph. Cluster
    hosts sit on a 1 Gbps switched LAN. Mixed testbeds combine PlanetLab and
    ModelNet hosts, crossing a WAN gateway. {!synthetic} testbeds model a
    million identical hosts.

    Every testbed keeps its data-plane state — liveness, link clocks, link
    parameters, the latency model — in one struct-of-arrays {!Links.t}, so
    the network has one send path for all of them. The PlanetLab,
    ModelNet, cluster and mixed testbeds also keep one immutable {!host}
    record per host for the control plane; synthetic testbeds keep none. *)

type kind = Planetlab | Modelnet | Cluster

type host = {
  id : Addr.host_id;
  kind : kind;
  coord : float * float; (* virtual coordinates, seconds of one-way delay *)
  load_factor : float; (* >= 1, multiplies per-message processing cost *)
  slowness : float; (* mean of the heavy-tailed service time (seconds) *)
  bw_up : float; (* bytes/second *)
  bw_down : float;
  stub : Topology.router; (* attachment for Modelnet/Cluster hosts *)
  mem_mb : float;
  host_rng : Splay_sim.Rng.t;
}
(** A host's immutable control-plane profile (what the controller selects
    on, what the daemon's memory model reads). Everything the data plane
    mutates — liveness, link clocks, the contention multiplier — lives in
    {!Links}. *)

(** The data-plane state every testbed keeps, struct-of-arrays indexed by
    host id: what {!Net.send} reads and writes per message. *)
module Links : sig
  (** A link parameter: one value every host shares, or one per host.
      Synthetic testbeds share (their hosts are identical); record
      testbeds keep one value per host. *)
  type param = Shared of float | Per_host of float array

  type t = {
    up_bits : Bytes.t;  (** 1 byte per host; 0 = down *)
    up_busy : float array;  (** per-host uplink busy-until, unboxed *)
    down_busy : float array;
    bw_up : param;  (** uplink bandwidth, bytes/second *)
    bw_down : param;
    proc_base : param;  (** per-message processing cost before contention, seconds *)
    mult : param;  (** contention multiplier on [proc_base] (see {!set_service_mult}) *)
    lat : Latency.t;  (** base one-way delays between hosts *)
  }
end

type t

val planetlab : ?n:int -> Splay_sim.Rng.t -> t
(** [n] defaults to 450 hosts, matching the experimental setup. *)

val modelnet : ?hosts:int -> ?bandwidth:float -> ?topology:Topology.t -> Splay_sim.Rng.t -> t
(** [hosts] defaults to 1,100 on a 500-router transit-stub graph;
    [bandwidth] defaults to 10 Mbps (in bytes/second) on every host. *)

val cluster : ?n:int -> ?mem_mb:float -> Splay_sim.Rng.t -> t
(** [n] defaults to 11 dual-core 2 GB machines on a 1 Gbps switch. *)

val mixed : planetlab:int -> modelnet:int -> Splay_sim.Rng.t -> t
(** PlanetLab hosts first (ids [0 .. planetlab-1]), then ModelNet hosts. *)

val synthetic :
  ?latency:Latency.t -> ?bw:float -> ?proc_cost:float -> hosts:int -> Splay_sim.Rng.t -> t
(** Million-host backend: no per-host records at all. Base delays come
    from the {!Latency.t} model ([latency] defaults to
    [Latency.synthetic ~seed:(a draw from the rng)]), and every host
    shares the same [bw] (default 10 Mbps, in bytes/second) and
    [proc_cost] (default 0.1 ms), so {!Links} holds them once: the only
    per-host state is the pair of link-busy clocks (two unboxed floats)
    plus one up/down byte — a few words per host instead of a few
    hundred, which is what lets a single simulated deployment reach 10^6
    hosts. Hosts never jitter (delays are the model's stable answers), and
    {!host}, {!hosts}, {!with_extra_host}, {!service_delay} and
    {!set_service_mult} raise [Invalid_argument]: there are no records to
    hand out. *)

val links : t -> Links.t
(** The data-plane state. {!Net} indexes it directly on every send. *)

val host_up : t -> Addr.host_id -> bool

val set_host_up : t -> Addr.host_id -> bool -> unit
(** Up/down flag of a host. *)

val with_extra_host : t -> t * Addr.host_id
(** Append one well-provisioned LAN-class host — where the trusted
    controller processes run. Returns the extended testbed and the new
    host's id (always the last index). The result's data-plane state
    (liveness, link clocks, contention multipliers) is fresh and
    independent of the input's: changes to one do not show in the other,
    so keep using only the result (the input is good for its {!size}).
    @raise Invalid_argument on {!synthetic} testbeds. *)

val size : t -> int

val host : t -> Addr.host_id -> host
val hosts : t -> host array
(** Raise [Invalid_argument] on {!synthetic} testbeds, which keep no
    per-host records — use {!host_up}, {!base_delay} and {!links}. *)

val rng : t -> Splay_sim.Rng.t

val base_delay : t -> Addr.host_id -> Addr.host_id -> float
(** Stable one-way propagation delay (no jitter); what a proximity-aware
    protocol can estimate by pinging. It is the answer of the testbed's
    [Links.lat] model. *)

val delay : t -> Addr.host_id -> Addr.host_id -> float
(** One-way propagation delay for one message: {!base_delay} times a
    lognormal jitter draw from the testbed's RNG when either end is a
    PlanetLab host (emulated and LAN links are stable). *)

val service_delay : t -> Addr.host_id -> float
(** Draw a host service time for a control-plane request (process fork,
    probe answer): exponential with the host's [slowness] mean, scaled by
    its contention multiplier. @raise Invalid_argument on {!synthetic}
    testbeds. *)

val service_mult : t -> Addr.host_id -> float
(** Contention multiplier of a host: it scales the host's per-message
    processing cost and its control-plane service time. 1.0 on
    {!synthetic} testbeds (which model contention in the network layer
    only). *)

val set_service_mult : t -> Addr.host_id -> float -> unit
(** Set a host's contention multiplier (the daemon's memory and CPU
    model raises it). @raise Invalid_argument on {!synthetic} testbeds,
    whose hosts share one multiplier. *)
