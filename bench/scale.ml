(* Scale curve: how large can ONE simulated deployment grow on one core?

   Two workloads, each as a single run (no controller, no daemons — the
   instances talk straight through the network model):

   - epidemic_N: an N-node one-way gossip flood over a random circulant
     peer graph. One rumor injected at node 0; the run ends when the
     flood has burnt out. Throughput is delivered messages per wall
     second; coverage is the fraction of nodes reached.
   - chord_N: an N-node Chord ring warm-started with Chord.assemble
     (converged fingers, no join traffic, no stabilizers), then random
     lookups from a pool of driver fibers. Throughput is completed
     lookups per wall second; hop counts and latencies are recorded
     through a bounded-memory Sink.sketch, as a million-sample exact
     collector would defeat the point.

   Every run uses a synthetic testbed (Testbed.synthetic): hash-seeded
   O(1) latency, link parameters shared by all hosts, ~2 words of
   per-host state, no host records. The
   rows land in BENCH_scale.json; the 10k rows carry CI floors
   (ops/sec) and ceilings (resident words per node) checked by
   scripts/check_bench_floors.sh, so a memory regression that would push
   the million-node run out of budget trips the smoke test long before
   anyone runs a million nodes. *)

open Splay
module Apps = Splay_apps

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

type row = {
  name : string;
  nodes : int;
  ops : int;
  seconds : float;
  resident_words : int option;
      (* live words after setup, before the run; [None] where the row
         does not measure it — the field is then omitted, never zeroed *)
  extras : (string * float) list; (* workload-specific numeric fields *)
}

let ops_per_sec r = if r.seconds > 0.0 then Float.of_int r.ops /. r.seconds else 0.0

(* Metrics-plane variants ([_obs] rows): the same single runs with
   windowed rollups and per-host telemetry sampling enabled. The paired
   rows put a number on the metrics overhead at scale — wall clock and
   resident words against the plain twin — which is exactly what the
   floors file guards. *)
let h_link_wait = Obs.histogram "net.link_wait"
let h_lookup = Obs.histogram "chord.lookup_s"

let with_metrics ~obs f =
  if not obs then f ()
  else begin
    let saved = !Obs.metrics_enabled in
    Obs.metrics_enabled := true;
    Obs.Rollup.clear ();
    Fun.protect ~finally:(fun () -> Obs.metrics_enabled := saved) f
  end

(* ---------- epidemic flood ---------- *)

let epidemic_run ?(obs = false) ~n ~seed () =
  with_metrics ~obs @@ fun () ->
  let engine = Engine.create ~seed () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng engine) in
  let net = Net.create engine tb in
  let graph_rng = Rng.split (Engine.rng engine) in
  let base = live_words () in
  let addrs = Array.init n (fun i -> Addr.make i 9000) in
  (* Peer graph: a fixed set of random ring strides shared by every node
     (a random circulant digraph — an expander with high probability).
     Shared strides mean the per-node footprint is just the 8-element
     peer list, not a per-node sample of the whole population. *)
  let degree = 8 in
  let strides = Array.init degree (fun _ -> 1 + Rng.int graph_rng (max 1 (n - 1))) in
  let config = { Apps.Epidemic.fanout = 6; rpc_timeout = 5.0; oneway = true } in
  let nodes = Array.make n None in
  let env0 = ref None in
  let env_acc = ref [] in
  for i = 0 to n - 1 do
    let peers = Array.to_list (Array.map (fun s -> addrs.((i + s) mod n)) strides) in
    let env = Env.create net ~me:addrs.(i) ~nodes:peers in
    if i = 0 then env0 := Some env;
    if obs then env_acc := env :: !env_acc;
    Apps.Epidemic.app ~config ~register:(fun x -> nodes.(i) <- Some x) env
  done;
  let envs = if obs then Array.of_list (List.rev !env_acc) else [||] in
  env_acc := [];
  let resident = live_words () - base in
  let origin = match nodes.(0) with Some x -> x | None -> assert false in
  let env0 = match !env0 with Some e -> e | None -> assert false in
  ignore (Env.thread env0 ~name:"rumor-origin" (fun () -> Apps.Epidemic.broadcast origin "r0"));
  if obs then Telemetry.monitor engine (fun () -> Telemetry.sample_envs envs);
  let t0 = Unix.gettimeofday () in
  ignore (Engine.run engine);
  let wall = Unix.gettimeofday () -. t0 in
  let covered = ref 0 in
  Array.iter
    (function
      | Some x when Apps.Epidemic.has_received x "r0" -> incr covered
      | _ -> ())
    nodes;
  let delivered = Net.messages_sent net - Net.messages_dropped net in
  {
    name = Printf.sprintf "epidemic_%s%s" (Common.size_tag n) (if obs then "_obs" else "");
    nodes = n;
    ops = delivered;
    seconds = wall;
    resident_words = Some resident;
    extras =
      ("coverage", Float.of_int !covered /. Float.of_int n)
      ::
      (if obs then
         [
           ("p50_link_wait_s", Obs.Rollup.quantile h_link_wait 0.5);
           ("p99_link_wait_s", Obs.Rollup.quantile h_link_wait 0.99);
         ]
       else []);
  }

(* ---------- epidemic flood, parallel engine ---------- *)

(* The same flood as {!epidemic_run}, but as ONE deployment spread over
   [parts] engine partitions (Fabric) and executed on up to [domains]
   worker domains. Plain rows only: the run itself is deterministic in
   (seed, parts), but bench-side telemetry sampling would read host
   state across partitions mid-window, so the metrics twins stay
   sequential. Extras record what the speedup floor needs: the partition
   count, how many workers the machine actually granted, the cores it
   could have granted, and the window count (virtual span / lookahead —
   the barrier overhead driver). *)
let epidemic_par_run ~domains ~parts ~n ~seed () =
  let fab = Fabric.create ~seed ~hosts:n ~parts () in
  let graph_rng = Rng.split (Engine.rng (Fabric.engine fab 0)) in
  let base = live_words () in
  let addrs = Array.init n (fun i -> Addr.make i 9000) in
  let degree = 8 in
  let strides = Array.init degree (fun _ -> 1 + Rng.int graph_rng (max 1 (n - 1))) in
  let config = { Apps.Epidemic.fanout = 6; rpc_timeout = 5.0; oneway = true } in
  let nodes = Array.make n None in
  let env0 = ref None in
  for i = 0 to n - 1 do
    let peers = Array.to_list (Array.map (fun s -> addrs.((i + s) mod n)) strides) in
    let env = Env.create (Fabric.net_of_host fab i) ~me:addrs.(i) ~nodes:peers in
    if i = 0 then env0 := Some env;
    Apps.Epidemic.app ~config ~register:(fun x -> nodes.(i) <- Some x) env
  done;
  let resident = live_words () - base in
  let origin = match nodes.(0) with Some x -> x | None -> assert false in
  let env0 = match !env0 with Some e -> e | None -> assert false in
  ignore (Env.thread env0 ~name:"rumor-origin" (fun () -> Apps.Epidemic.broadcast origin "r0"));
  let t0 = Unix.gettimeofday () in
  let info = Fabric.run ~domains fab in
  let wall = Unix.gettimeofday () -. t0 in
  let covered = ref 0 in
  Array.iter
    (function
      | Some x when Apps.Epidemic.has_received x "r0" -> incr covered
      | _ -> ())
    nodes;
  let delivered = Fabric.messages_sent fab - Fabric.messages_dropped fab in
  {
    name = Printf.sprintf "epidemic_par_%s" (Common.size_tag n);
    nodes = n;
    ops = delivered;
    seconds = wall;
    resident_words = Some resident;
    extras =
      [
        ("coverage", Float.of_int !covered /. Float.of_int n);
        ("domains", Float.of_int domains);
        ("workers", Float.of_int (Dpool.effective (min domains parts)));
        ("cores", Float.of_int (Pool.default_jobs ()));
        ("windows", Float.of_int info.Par.windows);
      ];
  }

(* ---------- chord lookups ---------- *)

let chord_run ?(obs = false) ~n ~seed ~lookups () =
  with_metrics ~obs @@ fun () ->
  let engine = Engine.create ~seed () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng engine) in
  let net = Net.create engine tb in
  let config = Apps.Chord.default_config in
  let md = Splay_runtime.Misc.pow2 config.Apps.Chord.m in
  let base = live_words () in
  (* evenly spaced ids: unique, sorted, and the ring array is shared
     read-only by every instance's fingers *)
  let spacing = max 1 (md / n) in
  let ring = Array.init n (fun i -> Apps.Node.make ~id:(i * spacing) ~addr:(Addr.make i 9000)) in
  let nodes = Array.make n None in
  for i = 0 to n - 1 do
    let env = Env.create net ~me:ring.(i).Apps.Node.addr in
    Apps.Chord.assemble ~config ~ring ~index:i ~register:(fun c -> nodes.(i) <- Some c) env
  done;
  let resident = live_words () - base in
  let rng = Rng.split (Engine.rng engine) in
  (* bounded-memory stats: a 100k-node run records every lookup without
     holding every sample *)
  let lat = Sink.sketch ~capacity:2048 ~seed:(seed + 1) () in
  let hops = Sink.sketch ~capacity:2048 ~seed:(seed + 2) () in
  let completed = ref 0 and wrong = ref 0 in
  (* expected owner of [key]: first ring id at or after it (mod wrap) *)
  let expected key =
    let i = (key + spacing - 1) / spacing in
    if i >= n then ring.(0).Apps.Node.id else ring.(i).Apps.Node.id
  in
  let drivers = min 32 n in
  let per = max 1 (lookups / drivers) in
  for d = 0 to drivers - 1 do
    ignore (d : int);
    let c = match nodes.(Rng.int rng n) with Some c -> c | None -> assert false in
    ignore
      (Env.thread (Apps.Chord.node_env c) ~name:"lookup-driver" (fun () ->
           for _ = 1 to per do
             let key = Rng.int rng md in
             let t0 = Engine.now engine in
             match Apps.Chord.lookup c key with
             | Some (owner, h) ->
                 incr completed;
                 Sink.add lat (Engine.now engine -. t0);
                 Obs.observe h_lookup (Engine.now engine -. t0);
                 Sink.add hops (Float.of_int h);
                 if owner.Apps.Node.id <> expected key then incr wrong
             | None -> ()
           done))
  done;
  let t0 = Unix.gettimeofday () in
  ignore (Engine.run engine);
  let wall = Unix.gettimeofday () -. t0 in
  Common.shape_check
    (Printf.sprintf "chord %d: all %d lookups correct" n !completed)
    (!wrong = 0 && !completed > 0);
  {
    name = Printf.sprintf "chord_%s%s" (Common.size_tag n) (if obs then "_obs" else "");
    nodes = n;
    ops = !completed;
    seconds = wall;
    resident_words = Some resident;
    extras =
      [
        ("mean_hops", Sink.mean hops);
        ("p99_hops", if Sink.is_empty hops then 0.0 else Sink.quantile hops 0.99);
        ("p50_lookup_s", if Sink.is_empty lat then 0.0 else Sink.quantile lat 0.5);
        ("p99_lookup_s", if Sink.is_empty lat then 0.0 else Sink.quantile lat 0.99);
      ]
      @ (* the rollup sees every lookup (the sketch subsamples), so the obs
           rows carry exact-count log-bucket percentiles up to p999 *)
      (if obs then
         let rq p = Obs.Rollup.quantile h_lookup p in
         [
           ("ru_p50_lookup_s", rq 0.5);
           ("ru_p99_lookup_s", rq 0.99);
           ("ru_p999_lookup_s", rq 0.999);
         ]
       else []);
  }

(* ---------- harness ---------- *)

let write_json path rows =
  let oc = open_out path in
  output_string oc "{\n  \"schema\": \"splay-bench-scale/1\",\n  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      let extras =
        String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf ", \"%s\": %.6f" k v) r.extras)
      in
      let words =
        match r.resident_words with
        | Some w ->
            Printf.sprintf ", \"resident_words\": %d, \"words_per_node\": %.1f" w
              (Float.of_int w /. Float.of_int r.nodes)
        | None -> ""
      in
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"nodes\": %d, \"ops\": %d, \"seconds\": %.6f, \"ops_per_sec\": %.0f%s%s}%s\n"
        r.name r.nodes r.ops r.seconds (ops_per_sec r) words extras
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc

let print_rows rows =
  Report.table
    ~header:[ "workload"; "nodes"; "ops"; "wall s"; "ops/s"; "words/node"; "detail" ]
    (List.map
       (fun r ->
         [
           r.name;
           string_of_int r.nodes;
           string_of_int r.ops;
           Report.float_cell ~decimals:2 r.seconds;
           Report.float_cell ~decimals:0 (ops_per_sec r);
           (match r.resident_words with
           | Some w -> Report.float_cell ~decimals:0 (Float.of_int w /. Float.of_int r.nodes)
           | None -> "-");
           String.concat " "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%.4g" k v) r.extras);
         ])
       rows)

let run () =
  Report.section "Scale — single-run node-count curve (one core)";
  let ep_sizes = Common.pick ~quick:[ 1_000; 10_000 ] ~full:[ 1_000; 10_000; 100_000; 1_000_000 ] in
  let ch_sizes = Common.pick ~quick:[ 1_000; 10_000 ] ~full:[ 1_000; 10_000; 100_000 ] in
  (* metrics-plane twins: 10k everywhere (the guarded smoke size), plus
     the full-scale flagships so the committed baseline records the
     metrics overhead where it hurts most. A twin runs interleaved with
     its plain row — plain, obs, plain, obs — keeping each variant's best
     wall clock: consecutive million-node runs in one process see heap
     and machine states that differ by tens of percent (far more than
     the overhead being measured), and min-of-interleaved keeps a slow
     slot from landing the penalty on either side of the ratio. *)
  let ep_obs_sizes = Common.pick ~quick:[ 10_000 ] ~full:[ 10_000; 1_000_000 ] in
  let ch_obs_sizes = Common.pick ~quick:[ 10_000 ] ~full:[ 10_000; 100_000 ] in
  let min_row (a : row) b = if b.seconds < a.seconds then b else a in
  let paired ~repeats plain obs =
    let rec go i (bp, bo) =
      if i >= repeats then [ bp; bo ] else go (i + 1) (min_row bp (plain ()), min_row bo (obs ()))
    in
    go 1 (plain (), obs ())
  in
  let rows =
    List.concat_map
      (fun n ->
        let plain () = epidemic_run ~n ~seed:11 () in
        if List.mem n ep_obs_sizes then
          paired
            ~repeats:(if n >= 1_000_000 then 2 else 1)
            plain
            (fun () -> epidemic_run ~obs:true ~n ~seed:11 ())
        else [ plain () ])
      ep_sizes
    @ (* parallel-engine twins of the epidemic rows: same workload, same
         seed, one deployment over [domains] partitions *)
    List.map
      (fun n ->
        epidemic_par_run ~domains:!Common.domains ~parts:!Common.domains ~n ~seed:11 ())
      (Common.pick ~quick:[ 10_000 ] ~full:[ 10_000; 100_000 ])
    @ List.concat_map
        (fun n ->
          let lookups = min 2_000 (n * 2) in
          chord_run ~n ~seed:23 ~lookups ()
          :: (if List.mem n ch_obs_sizes then [ chord_run ~obs:true ~n ~seed:23 ~lookups () ] else []))
        ch_sizes
  in
  print_rows rows;
  List.iter
    (fun r ->
      match List.assoc_opt "coverage" r.extras with
      | Some c ->
          Common.shape_check (Printf.sprintf "%s: flood covers the graph (%.1f%%)" r.name (100.0 *. c))
            (c > 0.9)
      | None -> ())
    rows;
  write_json !Common.bench_scale_out rows;
  Report.kv "baseline written" !Common.bench_scale_out
