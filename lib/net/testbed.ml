module Rng = Splay_sim.Rng

type kind = Planetlab | Modelnet | Cluster

type host = {
  id : Addr.host_id;
  kind : kind;
  mutable up : bool;
  coord : float * float;
  load_factor : float;
  slowness : float;
  bw_up : float;
  bw_down : float;
  stub : Topology.router;
  mem_mb : float;
  mutable up_busy : float;
  mutable down_busy : float;
  mutable service_mult : float;
  host_rng : Rng.t;
}

(* Struct-of-arrays storage for synthetic testbeds: per-host state is two
   unboxed link-busy floats and one up/down byte; bandwidth, processing
   cost and the latency model are shared scalars. A host costs ~3 words
   here against ~60 for a [host] record (mixed record, so every float
   field is a boxed pointer) — the difference between 1k and 1M hosts
   fitting in memory. *)
module Compact = struct
  type t = {
    n : int;
    lat : Latency.t;
    up_bits : Bytes.t;
    bw_up : float;
    bw_down : float;
    up_busy : float array;
    down_busy : float array;
    proc_cost : float;
    mem_mb : float;
    c_rng : Rng.t;
  }
end

type t = {
  t_rng : Rng.t;
  all : host array;
  topo : Topology.t option;
  lat : Latency.t option;
      (* the pair-delay model this testbed routes through: Latency.matrix
         over [topo] for emulated hosts, the synthetic model for compact
         testbeds *)
  gateway_delay : float; (* extra one-way delay crossing testbeds *)
  cmp : Compact.t option;
}

(* The matrix latency backend over this testbed's topology; [stub_of]
   reads the attachment router off the (already built) host array. *)
let matrix_lat all topo =
  Latency.matrix topo ~stub_of:(fun id -> all.(id).stub)

let mbps x = x *. 1_000_000.0 /. 8.0

(* PlanetLab host responsiveness: a mixture calibrated against Fig. 3 —
   a fast fifth, a loaded middle, and a badly overloaded tail. *)
let draw_slowness rng =
  let u = Rng.float rng 1.0 in
  if u < 0.14 then Rng.float rng 0.10
  else if u < 0.45 then 0.2 +. Rng.float rng 0.6
  else if u < 0.75 then 0.8 +. Rng.float rng 1.4
  else 1.2 +. Rng.pareto rng ~scale:1.0 ~shape:1.15

let mk_planetlab_host rng id =
  (* coordinates spread over ~80 ms of one-way delay in each dimension:
     intercontinental paths reach ~120 ms one-way *)
  let coord = (Rng.float rng 0.080, Rng.float rng 0.080) in
  {
    id;
    kind = Planetlab;
    up = true;
    coord;
    load_factor = 1.0 +. Rng.float rng 4.0;
    slowness = draw_slowness rng;
    bw_up = mbps (0.5 +. Rng.float rng 9.5);
    bw_down = mbps (1.0 +. Rng.float rng 9.0);
    stub = 0;
    mem_mb = 4096.0;
    up_busy = 0.0;
    down_busy = 0.0;
    service_mult = 1.0;
    host_rng = Rng.split rng;
  }

let planetlab ?(n = 450) rng =
  let t_rng = Rng.split rng in
  {
    t_rng;
    all = Array.init n (mk_planetlab_host rng);
    topo = None;
    lat = None;
    gateway_delay = 0.0;
    cmp = None;
  }

let modelnet ?(hosts = 1100) ?bandwidth ?topology rng =
  let topo = match topology with Some t -> t | None -> Topology.transit_stub rng in
  let bw = match bandwidth with Some b -> b | None -> mbps 10.0 in
  let t_rng = Rng.split rng in
  let mk id =
    {
      id;
      kind = Modelnet;
      up = true;
      coord = (0.0, 0.0);
      load_factor = 1.0;
      slowness = 0.005;
      bw_up = bw;
      bw_down = bw;
      stub = Topology.random_stub topo rng;
      mem_mb = 2048.0;
      up_busy = 0.0;
      down_busy = 0.0;
      service_mult = 1.0;
      host_rng = Rng.split rng;
    }
  in
  let all = Array.init hosts mk in
  { t_rng; all; topo = Some topo; lat = Some (matrix_lat all topo); gateway_delay = 0.0; cmp = None }

let cluster ?(n = 11) ?(mem_mb = 2048.0) rng =
  let t_rng = Rng.split rng in
  let mk id =
    {
      id;
      kind = Cluster;
      up = true;
      coord = (0.0, 0.0);
      load_factor = 1.0;
      slowness = 0.001;
      bw_up = mbps 1000.0;
      bw_down = mbps 1000.0;
      stub = 0;
      mem_mb;
      up_busy = 0.0;
      down_busy = 0.0;
      service_mult = 1.0;
      host_rng = Rng.split rng;
    }
  in
  { t_rng; all = Array.init n mk; topo = None; lat = None; gateway_delay = 0.0; cmp = None }

let mixed ~planetlab:np ~modelnet:nm rng =
  let topo = Topology.transit_stub rng in
  let pl = Array.init np (mk_planetlab_host rng) in
  let mn =
    Array.init nm (fun i ->
        {
          id = np + i;
          kind = Modelnet;
          up = true;
          coord = (0.0, 0.0);
          load_factor = 1.0;
          slowness = 0.005;
          bw_up = mbps 10.0;
          bw_down = mbps 10.0;
          stub = Topology.random_stub topo rng;
          mem_mb = 2048.0;
          up_busy = 0.0;
          down_busy = 0.0;
          service_mult = 1.0;
          host_rng = Rng.split rng;
        })
  in
  let all = Array.append pl mn in
  {
    t_rng = Rng.split rng;
    all;
    topo = Some topo;
    lat = Some (matrix_lat all topo);
    gateway_delay = 0.020;
    cmp = None;
  }

let synthetic ?latency ?(bw = mbps 10.0) ?(proc_cost = 0.000_1) ?(mem_mb = 2048.0) ~hosts rng =
  if hosts < 1 then invalid_arg "Testbed.synthetic";
  let lat =
    match latency with
    | Some l -> l
    | None -> Latency.synthetic ~seed:(Int64.to_int (Rng.bits64 rng)) ()
  in
  let t_rng = Rng.split rng in
  let cmp =
    {
      Compact.n = hosts;
      lat;
      up_bits = Bytes.make hosts '\001';
      bw_up = bw;
      bw_down = bw;
      up_busy = Array.make hosts 0.0;
      down_busy = Array.make hosts 0.0;
      proc_cost;
      mem_mb;
      c_rng = Rng.split rng;
    }
  in
  { t_rng; all = [||]; topo = None; lat = Some lat; gateway_delay = 0.0; cmp = Some cmp }

let with_extra_host t =
  if t.cmp <> None then
    invalid_arg "Testbed.with_extra_host: synthetic testbeds have no host records";
  let id = Array.length t.all in
  let h =
    {
      id;
      kind = Cluster;
      up = true;
      coord = (0.040, 0.040);
      load_factor = 1.0;
      slowness = 0.001;
      bw_up = mbps 1000.0;
      bw_down = mbps 1000.0;
      stub = 0;
      mem_mb = 16384.0;
      up_busy = 0.0;
      down_busy = 0.0;
      service_mult = 1.0;
      host_rng = Rng.split t.t_rng;
    }
  in
  let all = Array.append t.all [| h |] in
  let lat = match t.topo with Some topo -> Some (matrix_lat all topo) | None -> t.lat in
  ({ t with all; lat }, id)

let size t = match t.cmp with Some c -> c.Compact.n | None -> Array.length t.all

let no_records fn =
  invalid_arg ("Testbed." ^ fn ^ ": synthetic testbeds keep no per-host records")

let host t id = if t.cmp <> None then no_records "host" else t.all.(id)
let hosts t = if t.cmp <> None then no_records "hosts" else t.all
let rng t = t.t_rng
let compact t = t.cmp
let latency t = t.lat

let host_up t id =
  match t.cmp with
  | Some c -> Bytes.get c.Compact.up_bits id <> '\000'
  | None -> t.all.(id).up

let set_host_up t id up =
  match t.cmp with
  | Some c -> Bytes.set c.Compact.up_bits id (if up then '\001' else '\000')
  | None -> t.all.(id).up <- up

let euclid (x1, y1) (x2, y2) =
  let dx = x1 -. x2 and dy = y1 -. y2 in
  sqrt ((dx *. dx) +. (dy *. dy))

(* Host-record variants ([*_h]) let callers that already hold the [host]
   records (the network send path looks both endpoints up anyway for the
   link queues) skip the repeated [t.all.(id)] loads. They are the
   implementations; the id-keyed functions are wrappers, so both draw from
   the same RNG streams in the same order. *)

let base_delay_h t ha hb =
  if ha.id = hb.id then 0.000_05
  else begin
    match (ha.kind, hb.kind) with
    | Planetlab, Planetlab -> 0.005 +. euclid ha.coord hb.coord
    | Modelnet, Modelnet -> (
        (* through the Latency signature (the matrix backend over this
           testbed's topology): same arithmetic, same floats as the old
           direct Topology.delay call, so fixed-seed traces do not move *)
        match t.lat with
        | Some lat -> Latency.delay lat ha.id hb.id
        | None -> 0.015)
    | Cluster, Cluster -> 0.000_05
    | Planetlab, Modelnet | Modelnet, Planetlab -> (
        (* cross the WAN gateway of the emulated site *)
        let pl, _mn = if ha.kind = Planetlab then (ha, hb) else (hb, ha) in
        let edge = 0.005 +. euclid pl.coord (0.040, 0.040) in
        match t.topo with
        | Some topo -> edge +. t.gateway_delay +. Topology.intra_stub_delay topo
        | None -> edge +. t.gateway_delay)
    | Cluster, Planetlab | Planetlab, Cluster ->
        (* controller / cluster machines sit at the virtual centre *)
        let pl = if ha.kind = Planetlab then ha else hb in
        0.005 +. euclid pl.coord (0.040, 0.040)
    | Cluster, Modelnet | Modelnet, Cluster -> 0.002
  end

let base_delay t a b =
  match t.cmp with
  | Some c -> Latency.delay c.Compact.lat a b
  | None -> base_delay_h t t.all.(a) t.all.(b)

let delay_h t ha hb =
  let base = base_delay_h t ha hb in
  if ha.kind = Planetlab || hb.kind = Planetlab then
    (* wide-area jitter: median ~5% of base, occasional 2-3x spikes *)
    base *. Rng.lognormal t.t_rng ~mu:0.0 ~sigma:0.25
  else base

let delay t a b =
  match t.cmp with
  | Some c -> Latency.delay c.Compact.lat a b (* model answers are stable: no jitter *)
  | None -> delay_h t t.all.(a) t.all.(b)

let service_delay t id =
  match t.cmp with
  | Some c ->
      ignore (id : Addr.host_id);
      Rng.exponential c.Compact.c_rng ~mean:0.001
  | None ->
      let h = t.all.(id) in
      Rng.exponential h.host_rng ~mean:(h.slowness *. h.service_mult)

let service_mult t id =
  match t.cmp with Some _ -> 1.0 | None -> t.all.(id).service_mult

let proc_cost_h h = 0.000_1 *. h.load_factor *. h.service_mult

let proc_cost t id =
  match t.cmp with Some c -> c.Compact.proc_cost | None -> proc_cost_h t.all.(id)
