module Engine = Splay_sim.Engine
module Par = Splay_sim.Par
module Dpool = Splay_sim.Dpool
module Env = Splay_runtime.Env
module Misc = Splay_runtime.Misc
module Sink = Splay_stats.Sink
module Node = Splay_apps.Node
module Pastry = Splay_apps.Pastry
module Dht_store = Splay_apps.Dht_store
module Webcache = Splay_apps.Webcache

type target = Dht | Web

type scenario = {
  nodes : int;
  gateways : int;
  target : target;
  serve_cost : float;
  batching : bool;
  p2c : bool;
  admission : bool;
  token_rate : float;
  token_burst : float;
  slo_budget : float;
  replicas : int;
  load : Load.config;
}

let default =
  {
    nodes = 200;
    gateways = 32;
    target = Dht;
    serve_cost = 0.002;
    batching = false;
    p2c = false;
    admission = false;
    token_rate = 0.0;
    token_burst = 32.0;
    slo_budget = 0.05;
    replicas = 3;
    load = Load.default;
  }

let all_on s = { s with batching = true; p2c = true; admission = true }

type mode = Seq | Fab of { parts : int; domains : int }

type result = {
  r_rate : float;
  offered : int;
  ok : int;
  misses : int;
  shed : int;
  failed : int;
  p50 : float;
  p99 : float;
  p999 : float;
  mean_lat : float;
  served : int;
  server_shed : int;
  batched : int;
  origin : int;
  stale : int;
  client_words : float;
  windows : int;
  workers : int;
}

(* Fixed-format one-line rendering: what the determinism tests pin
   byte-for-byte across --jobs and --domains worker counts. *)
let to_line r =
  Printf.sprintf
    "rate=%.1f offered=%d ok=%d miss=%d shed=%d failed=%d p50=%.6f p99=%.6f p999=%.6f \
     served=%d sshed=%d batched=%d origin=%d stale=%d"
    r.r_rate r.offered r.ok r.misses r.shed r.failed r.p50 r.p99 r.p999 r.served r.server_shed
    r.batched r.origin r.stale

type backend = Bdht of Dht_store.t array | Bweb of Webcache.t array

let issue_one backend g op =
  match (backend, op) with
  | Bdht stores, Load.Get key -> (
      match Dht_store.get_r stores.(g) ~key with
      | `Value _ -> `Ok
      | `Miss -> `Miss
      | `Shed -> `Shed)
  | Bdht stores, Load.Put (key, v) -> (
      match Dht_store.put_r stores.(g) ~key ~value:v with
      | acks, _ when acks > 0 -> `Ok
      | _, sheds when sheds > 0 -> `Shed
      | _ -> `Failed)
  | Bweb caches, (Load.Get key | Load.Put (key, _)) -> (
      match Webcache.get caches.(g) key with
      | _, (`Hit | `Miss), _ -> `Ok
      | _, `Shed, _ -> `Shed
      | _, `Failed, _ -> `Failed)

(* One offered-load step: build the overlay warm (Pastry.assemble), layer
   the serving application, preload the key space at its replica owners,
   install the open-loop generator, and drive the engine until every
   accepted request has completed — open-loop arrivals stop at
   [load.duration], so the run drains and the latency of every arrival is
   accounted (no censoring of the slow tail). *)
let run ?(mode = Seq) scenario ~seed ~rate =
  let n = scenario.nodes in
  let gws = min scenario.gateways n in
  let parts, domains =
    match mode with Seq -> (1, 1) | Fab { parts; domains } -> (parts, domains)
  in
  if parts > gws then invalid_arg "Harness.run: need at least one gateway per partition";
  let fab =
    match mode with
    | Seq -> None
    | Fab _ -> Some (Fabric.create ~seed ~hosts:n ~parts ())
  in
  let eng, net_of =
    match fab with
    | None ->
        let eng = Engine.create ~seed () in
        let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
        let net = Net.create eng tb in
        (Some eng, fun _ -> net)
    | Some f -> (None, fun i -> Fabric.net_of_host f i)
  in
  let pcfg = Pastry.default_config in
  let spacing = max 1 (Misc.pow2 pcfg.Pastry.bits / n) in
  let ring = Array.init n (fun i -> Node.make ~id:(i * spacing) ~addr:(Addr.make i 9000)) in
  let envs = Array.init n (fun i -> Env.create (net_of i) ~me:ring.(i).Node.addr) in
  let pastries = Array.make n None in
  for i = 0 to n - 1 do
    Pastry.assemble ~config:pcfg ~ring ~index:i
      ~register:(fun p -> pastries.(i) <- Some p)
      envs.(i)
  done;
  let pastry i = match pastries.(i) with Some p -> p | None -> assert false in
  (* sustained per-owner capacity is 1/serve_cost; the default admission
     rate protects 90% of it *)
  let token_rate =
    if scenario.token_rate > 0.0 then scenario.token_rate
    else if scenario.serve_cost > 0.0 then 0.9 /. scenario.serve_cost
    else Dht_store.default_config.Dht_store.token_rate
  in
  let backend =
    match scenario.target with
    | Dht ->
        let cfg =
          {
            Dht_store.replicas = scenario.replicas;
            (* no churn in a serving step: republish off and entries
               immortal, so the engine drains when the load does *)
            republish_interval = 0.0;
            entry_ttl = Float.max_float;
            (* overload must surface as latency, not as spurious failure
               detection: queue delays never masquerade as dead owners *)
            rpc_timeout = 1e6;
            serve_cost = scenario.serve_cost;
            batching = scenario.batching;
            p2c = scenario.p2c;
            admission = scenario.admission;
            token_rate;
            token_burst = scenario.token_burst;
            slo_budget = scenario.slo_budget;
          }
        in
        Bdht (Array.init n (fun i -> Dht_store.create ~config:cfg (pastry i)))
    | Web ->
        let cfg =
          {
            Webcache.default_config with
            Webcache.ttl = Float.max_float;
            rpc_timeout = 1e6;
            serve_cost = scenario.serve_cost;
            coalesce = scenario.batching;
            admission = scenario.admission;
            token_rate;
            token_burst = scenario.token_burst;
          }
        in
        Bweb (Array.init n (fun i -> Webcache.create ~config:cfg (pastry i)))
  in
  (* Warm start the data at its replica sets, found without routing —
     routing [keys] puts through the overlay first would dominate a
     100k-node step's wall time. Store [i] sits at address host [i]. *)
  (match backend with
  | Bdht stores ->
      let value = String.make scenario.load.Load.value_size 'v' in
      for kk = 1 to scenario.load.Load.keys do
        Dht_store.warm_put stores ~key:("k" ^ Int.to_string kk) ~value
      done
  | Bweb _ -> ());
  let part_of i = match fab with None -> 0 | Some f -> Fabric.part_of f i in
  let lcfg = { scenario.load with Load.rate } in
  let stats =
    List.init parts (fun p ->
        let local =
          Array.of_list (List.filter (fun i -> part_of i = p) (List.init gws Fun.id))
        in
        let genvs = Array.map (fun i -> envs.(i)) local in
        let issue g op = issue_one backend local.(g) op in
        Load.run lcfg ~seed ~part:p ~parts ~gateways:genvs ~issue)
  in
  let windows, workers =
    match fab with
    | None ->
        ignore (Engine.run (Option.get eng));
        (0, 1)
    | Some f ->
        let info = Fabric.run ~domains f in
        (info.Par.windows, Dpool.effective (min domains parts))
  in
  let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
  let sumf f = List.fold_left (fun a s -> a +. f s) 0.0 stats in
  let lat_n = sum (fun s -> Sink.count s.Load.lat) in
  (* multi-partition quantiles: count-weighted mean of per-partition
     sketch quantiles (same aggregation the metrics plane uses for
     windowed histograms) *)
  let q qq =
    if lat_n = 0 then 0.0
    else
      sumf (fun s ->
          if Sink.is_empty s.Load.lat then 0.0
          else Float.of_int (Sink.count s.Load.lat) *. Sink.quantile s.Load.lat qq)
      /. Float.of_int lat_n
  in
  let mean_lat =
    if lat_n = 0 then 0.0
    else
      sumf (fun s -> Float.of_int (Sink.count s.Load.lat) *. Sink.mean s.Load.lat)
      /. Float.of_int lat_n
  in
  let served, server_shed, batched, origin, stale =
    match backend with
    | Bdht stores ->
        let s f = Array.fold_left (fun a st -> a + f st) 0 stores in
        ( s Dht_store.served_count,
          s Dht_store.shed_count,
          s Dht_store.batched_count,
          0,
          0 )
    | Bweb caches ->
        let s f = Array.fold_left (fun a c -> a + f c) 0 caches in
        ( s Webcache.requests_served,
          s Webcache.shed_count,
          max 0 (s Webcache.home_misses - s Webcache.origin_fetches),
          s Webcache.origin_fetches,
          s Webcache.stale_served )
  in
  {
    r_rate = rate;
    offered = sum (fun s -> s.Load.offered);
    ok = sum (fun s -> s.Load.ok);
    misses = sum (fun s -> s.Load.misses);
    shed = sum (fun s -> s.Load.shed);
    failed = sum (fun s -> s.Load.failed);
    p50 = q 0.5;
    p99 = q 0.99;
    p999 = q 0.999;
    mean_lat;
    served;
    server_shed;
    batched;
    origin;
    stale;
    client_words =
      Float.of_int (sum (fun s -> s.Load.setup_words))
      /. Float.of_int (max 1 scenario.load.Load.clients);
    windows;
    workers;
  }
