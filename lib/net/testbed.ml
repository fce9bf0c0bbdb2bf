module Rng = Splay_sim.Rng

type kind = Planetlab | Modelnet | Cluster

type host = {
  id : Addr.host_id;
  kind : kind;
  coord : float * float;
  load_factor : float;
  slowness : float;
  bw_up : float;
  bw_down : float;
  stub : Topology.router;
  mem_mb : float;
  host_rng : Rng.t;
}

(* Data-plane state of every testbed, struct-of-arrays: per host two
   unboxed link-busy floats and one up/down byte, plus a parameter slot
   that is one shared value when every host is alike (synthetic) and a
   flat float array otherwise. A synthetic host costs ~3 words here
   against ~60 for a mixed host record — the difference between 1k and
   1M hosts fitting in memory. *)
module Links = struct
  type param = Shared of float | Per_host of float array

  type t = {
    up_bits : Bytes.t;
    up_busy : float array;
    down_busy : float array;
    bw_up : param;
    bw_down : param;
    proc_base : param;
    mult : param;
    lat : Latency.t;
  }
end

type t = {
  t_rng : Rng.t;
  all : host array; (* empty on synthetic testbeds *)
  topo : Topology.t option;
  gateway_delay : float; (* extra one-way delay crossing testbeds *)
  jitter : bool; (* some host is on PlanetLab *)
  links : Links.t;
}

let mbps x = x *. 1_000_000.0 /. 8.0

let euclid (x1, y1) (x2, y2) =
  let dx = x1 -. x2 and dy = y1 -. y2 in
  sqrt ((dx *. dx) +. (dy *. dy))

(* Base one-way delay between two host records, by kind. [matrix] is the
   Latency.matrix over the testbed's topology, present whenever ModelNet
   hosts are. *)
let record_delay ~topo ~matrix ~gateway_delay ha hb =
  if ha.id = hb.id then 0.000_05
  else begin
    match (ha.kind, hb.kind) with
    | Planetlab, Planetlab -> 0.005 +. euclid ha.coord hb.coord
    | Modelnet, Modelnet -> (
        match matrix with Some lat -> Latency.delay lat ha.id hb.id | None -> 0.015)
    | Cluster, Cluster -> 0.000_05
    | Planetlab, Modelnet | Modelnet, Planetlab -> (
        (* cross the WAN gateway of the emulated site *)
        let pl = if ha.kind = Planetlab then ha else hb in
        let edge = 0.005 +. euclid pl.coord (0.040, 0.040) in
        match topo with
        | Some topo -> edge +. gateway_delay +. Topology.intra_stub_delay topo
        | None -> edge +. gateway_delay)
    | Cluster, Planetlab | Planetlab, Cluster ->
        (* controller / cluster machines sit at the virtual centre *)
        let pl = if ha.kind = Planetlab then ha else hb in
        0.005 +. euclid pl.coord (0.040, 0.040)
    | Cluster, Modelnet | Modelnet, Cluster -> 0.002
  end

let make_links n lat ~bw_up ~bw_down ~proc_base ~mult =
  {
    Links.up_bits = Bytes.make n '\001';
    up_busy = Array.make n 0.0;
    down_busy = Array.make n 0.0;
    bw_up;
    bw_down;
    proc_base;
    mult;
    lat;
  }

(* A testbed over host records: every link parameter is per host, and pair
   delays come from [record_delay] wrapped as a Latency.t. *)
let of_records ~t_rng ~topo ~gateway_delay all =
  let n = Array.length all in
  let matrix =
    Option.map (fun topo -> Latency.matrix topo ~stub_of:(fun id -> all.(id).stub)) topo
  in
  let lat =
    Latency.of_fn ~name:"testbed" (fun a b ->
        record_delay ~topo ~matrix ~gateway_delay all.(a) all.(b))
  in
  let per f = Links.Per_host (Array.map f all) in
  {
    t_rng;
    all;
    topo;
    gateway_delay;
    jitter = Array.exists (fun h -> h.kind = Planetlab) all;
    links =
      make_links n lat ~bw_up:(per (fun h -> h.bw_up)) ~bw_down:(per (fun h -> h.bw_down))
        ~proc_base:(per (fun h -> 0.000_1 *. h.load_factor))
        ~mult:(Links.Per_host (Array.make n 1.0));
  }

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
    coord;
    load_factor = 1.0 +. Rng.float rng 4.0;
    slowness = draw_slowness rng;
    bw_up = mbps (0.5 +. Rng.float rng 9.5);
    bw_down = mbps (1.0 +. Rng.float rng 9.0);
    stub = 0;
    mem_mb = 4096.0;
    host_rng = Rng.split rng;
  }

let planetlab ?(n = 450) rng =
  let t_rng = Rng.split rng in
  of_records ~t_rng ~topo:None ~gateway_delay:0.0 (Array.init n (mk_planetlab_host rng))

let mk_modelnet_host ~bw topo rng id =
  {
    id;
    kind = Modelnet;
    coord = (0.0, 0.0);
    load_factor = 1.0;
    slowness = 0.005;
    bw_up = bw;
    bw_down = bw;
    stub = Topology.random_stub topo rng;
    mem_mb = 2048.0;
    host_rng = Rng.split rng;
  }

(* A machine on a 1 Gbps switched LAN: cluster nodes, and the controller's
   host at the virtual centre of the PlanetLab coordinates. *)
let mk_lan_host ~coord ~mem_mb rng id =
  {
    id;
    kind = Cluster;
    coord;
    load_factor = 1.0;
    slowness = 0.001;
    bw_up = mbps 1000.0;
    bw_down = mbps 1000.0;
    stub = 0;
    mem_mb;
    host_rng = Rng.split rng;
  }

let modelnet ?(hosts = 1100) ?(bandwidth = mbps 10.0) ?topology rng =
  let topo = match topology with Some t -> t | None -> Topology.transit_stub rng in
  let t_rng = Rng.split rng in
  let all = Array.init hosts (mk_modelnet_host ~bw:bandwidth topo rng) in
  of_records ~t_rng ~topo:(Some topo) ~gateway_delay:0.0 all

let cluster ?(n = 11) ?(mem_mb = 2048.0) rng =
  let t_rng = Rng.split rng in
  let all = Array.init n (mk_lan_host ~coord:(0.0, 0.0) ~mem_mb rng) in
  of_records ~t_rng ~topo:None ~gateway_delay:0.0 all

let mixed ~planetlab:np ~modelnet:nm rng =
  let topo = Topology.transit_stub rng in
  let pl = Array.init np (mk_planetlab_host rng) in
  let mn = Array.init nm (fun i -> mk_modelnet_host ~bw:(mbps 10.0) topo rng (np + i)) in
  let all = Array.append pl mn in
  of_records ~t_rng:(Rng.split rng) ~topo:(Some topo) ~gateway_delay:0.020 all

let synthetic ?latency ?(bw = mbps 10.0) ?(proc_cost = 0.000_1) ~hosts rng =
  if hosts < 1 then invalid_arg "Testbed.synthetic";
  let lat =
    match latency with
    | Some l -> l
    | None -> Latency.synthetic ~seed:(Int64.to_int (Rng.bits64 rng)) ()
  in
  let t_rng = Rng.split rng in
  (* Nothing draws from this split any more (it fed a control-plane stream
     synthetic hosts no longer have), but dropping it would shift every
     later split from [rng] — the engine RNG — and with it every seeded
     run built after the testbed. *)
  ignore (Rng.split rng : Rng.t);
  {
    t_rng;
    all = [||];
    topo = None;
    gateway_delay = 0.0;
    jitter = false;
    links =
      make_links hosts lat ~bw_up:(Shared bw) ~bw_down:(Shared bw) ~proc_base:(Shared proc_cost)
        ~mult:(Shared 1.0);
  }

let no_records fn =
  invalid_arg ("Testbed." ^ fn ^ ": synthetic testbeds keep no per-host records")

let with_extra_host t =
  if Array.length t.all = 0 then no_records "with_extra_host";
  let id = Array.length t.all in
  let h = mk_lan_host ~coord:(0.040, 0.040) ~mem_mb:16384.0 t.t_rng id in
  let all = Array.append t.all [| h |] in
  (of_records ~t_rng:t.t_rng ~topo:t.topo ~gateway_delay:t.gateway_delay all, id)

let size t = Bytes.length t.links.Links.up_bits
let host t id = if Array.length t.all = 0 then no_records "host" else t.all.(id)
let hosts t = if Array.length t.all = 0 then no_records "hosts" else t.all
let rng t = t.t_rng
let links t = t.links

let host_up t id = Bytes.get t.links.Links.up_bits id <> '\000'
let set_host_up t id up = Bytes.set t.links.Links.up_bits id (if up then '\001' else '\000')

let base_delay t a b = Latency.delay t.links.Links.lat a b

let delay t a b =
  let base = Latency.delay t.links.Links.lat a b in
  if t.jitter && (t.all.(a).kind = Planetlab || t.all.(b).kind = Planetlab) then
    (* wide-area jitter: median ~5% of base, occasional 2-3x spikes *)
    base *. Rng.lognormal t.t_rng ~mu:0.0 ~sigma:0.25
  else base

let service_mult t id =
  match t.links.Links.mult with Shared m -> m | Per_host a -> a.(id)

let set_service_mult t id m =
  match t.links.Links.mult with
  | Per_host a -> a.(id) <- m
  | Shared _ -> invalid_arg "Testbed.set_service_mult: synthetic hosts share one multiplier"

let service_delay t id =
  let h = host t id in
  Rng.exponential h.host_rng ~mean:(h.slowness *. service_mult t id)
