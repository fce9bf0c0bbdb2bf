(* Tests for the open-loop serving stack: the virtual-client load
   generator (partition splitting, O(1) words per idle client), the
   one-step harness (accounting identities, drain, stale-freshness), the
   serving optimizations (batching / p2c / admission actually move the
   needle past the knee), and the determinism pins the acceptance
   criteria require: byte-identical result lines across Pool --jobs and
   across parallel-engine worker-domain counts. *)

open Splay_net
module Dpool = Splay_sim.Dpool
module Pool = Splay_sim.Pool
module Load = Splay_serve.Load
module Harness = Splay_serve.Harness
module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng
module Env = Splay_runtime.Env
module Misc = Splay_runtime.Misc
module Crypto = Splay_runtime.Crypto
module Node = Splay_apps.Node
module Pastry = Splay_apps.Pastry
module Dht_store = Splay_apps.Dht_store

(* {2 Load.client_span} *)

let test_client_span () =
  (* spans partition [0, clients) exactly: contiguous, disjoint, total *)
  List.iter
    (fun (clients, parts) ->
      let total = ref 0 and cursor = ref 0 in
      for p = 0 to parts - 1 do
        let lo, len = Load.client_span ~clients ~part:p ~parts in
        Alcotest.(check int) "contiguous" !cursor lo;
        Alcotest.(check bool) "non-negative" true (len >= 0);
        cursor := lo + len;
        total := !total + len
      done;
      Alcotest.(check int) "covers all clients" clients !total)
    [ (10, 3); (1_000_000, 7); (5, 8); (0, 4); (16, 4) ]

(* {2 A small scenario the remaining tests share} *)

let small =
  {
    Harness.default with
    Harness.nodes = 60;
    gateways = 12;
    serve_cost = 0.004;
    load =
      {
        Load.default with
        Load.clients = 5_000;
        keys = 200;
        duration = 20.0;
        inflight = 8;
      };
  }

(* {2 Accounting identities and freshness} *)

let test_harness_accounting () =
  let r = Harness.run small ~seed:7 ~rate:400.0 in
  Alcotest.(check bool) "arrivals happened" true (r.Harness.offered > 1_000);
  Alcotest.(check int) "every arrival accounted"
    r.Harness.offered
    (r.Harness.ok + r.Harness.misses + r.Harness.shed + r.Harness.failed);
  Alcotest.(check int) "no failures in a healthy ring" 0 r.Harness.failed;
  Alcotest.(check bool) "latencies positive" true (r.Harness.p50 > 0.0);
  Alcotest.(check bool) "quantiles ordered" true
    (r.Harness.p50 <= r.Harness.p99 && r.Harness.p99 <= r.Harness.p999);
  Alcotest.(check int) "every get finds its preloaded key" 0 r.Harness.misses;
  Alcotest.(check int) "no stale serves" 0 r.Harness.stale

let test_harness_web_target () =
  let web = { small with Harness.target = Harness.Web } in
  let off = Harness.run web ~seed:9 ~rate:300.0 in
  let on = Harness.run { web with Harness.batching = true } ~seed:9 ~rate:300.0 in
  List.iter
    (fun r ->
      Alcotest.(check bool) "arrivals happened" true (r.Harness.offered > 500);
      Alcotest.(check int) "every arrival accounted"
        r.Harness.offered
        (r.Harness.ok + r.Harness.misses + r.Harness.shed + r.Harness.failed);
      Alcotest.(check int) "no stale-beyond-TTL serves" 0 r.Harness.stale;
      Alcotest.(check bool) "origin reached" true (r.Harness.origin > 0))
    [ off; on ];
  (* same arrival schedule: singleflight absorbs the concurrent misses on
     a hot url into its leader's fetch instead of repeating it *)
  Alcotest.(check bool)
    (Printf.sprintf "coalescing saves origin fetches (%d vs %d)" on.Harness.origin
       off.Harness.origin)
    true
    (on.Harness.origin < off.Harness.origin);
  Alcotest.(check int) "without coalescing every miss fetches" 0 off.Harness.batched;
  Alcotest.(check bool) "coalesced waiters counted" true (on.Harness.batched > 0)

(* {2 Warm start places data where routing looks for it} *)

(* On a 1k-node assembled ring, [Dht_store.warm_put] (the harness's warm
   start) and a routed put agree on every key's replica set, and both are
   the 3 ring members closest to the key. Holders are read off
   [stored_entries]: a warm put adds exactly one entry at each replica, a
   routed put of the same key only overwrites. *)
let test_warm_start_matches_routing () =
  let n = 1_000 and keys = 200 in
  let md = Misc.pow2 32 in
  let eng = Engine.create ~seed:5 () in
  let net = Net.create eng (Testbed.synthetic ~hosts:n (Engine.rng eng)) in
  let ring = Array.init n (fun i -> Node.make ~id:(i * (md / n)) ~addr:(Addr.make i 9000)) in
  let envs = Array.map (fun nd -> Env.create net ~me:nd.Node.addr) ring in
  let pastries = Array.make n None in
  Array.iteri
    (fun i env -> Pastry.assemble ~ring ~index:i ~register:(fun p -> pastries.(i) <- Some p) env)
    envs;
  let config = { Dht_store.default_config with republish_interval = 0.0 } in
  let stores = Array.map (fun p -> Dht_store.create ~config (Option.get p)) pastries in
  let entries () = Array.map Dht_store.stored_entries stores in
  let rng = Rng.create 9 in
  let checked = ref 0 in
  ignore
    (Env.thread envs.(0) (fun () ->
         for kk = 1 to keys do
           let key = Printf.sprintf "key-%d" kk in
           let e0 = entries () in
           Dht_store.warm_put stores ~key ~value:"warm";
           let e1 = entries () in
           let warm = List.filter (fun i -> e1.(i) > e0.(i)) (List.init n Fun.id) in
           let kid = Crypto.hash_to_id key ~bits:32 in
           let d i =
             let id = ring.(i).Node.id in
             min (Misc.ring_distance id kid ~modulus:md) (Misc.ring_distance kid id ~modulus:md)
           in
           let by_distance = List.sort (fun a b -> compare (d a, a) (d b, b)) (List.init n Fun.id) in
           let closest = List.sort compare (Misc.take 3 by_distance) in
           Alcotest.(check (list int)) "warm set is the 3 closest members" closest warm;
           let acks = Dht_store.put stores.(Rng.int rng n) ~key ~value:"routed" in
           Alcotest.(check int) "routed put acknowledged by every replica" 3 acks;
           Alcotest.(check bool) "routed put lands on the warm set" true (entries () = e1);
           incr checked
         done));
  ignore (Engine.run eng);
  (match Engine.crashed eng with [] -> () | (_, e) :: _ -> raise e);
  Alcotest.(check int) "every key checked" keys !checked

(* {2 Bounded generator footprint: O(1) words per idle client} *)

let test_client_words_bounded () =
  let s =
    {
      small with
      Harness.load =
        { small.Harness.load with Load.clients = 200_000; duration = 2.0 };
    }
  in
  let r = Harness.run s ~seed:11 ~rate:200.0 in
  Alcotest.(check bool)
    (Printf.sprintf "words per idle client bounded (got %.2f)" r.Harness.client_words)
    true
    (r.Harness.client_words < 8.0)

(* {2 The optimizations move the needle} *)

(* Past the knee: 60 nodes at 4ms/service sustain ~15k req/s ring-wide,
   but Zipf s=1.0 over 200 keys concentrates ~17% of arrivals on the
   hottest key, so 3k req/s saturates its primary owner. The overload
   scenario widens the per-gateway in-flight pool so the generator stays
   open-loop and the owners — not the client pool — are the bottleneck. *)
let overload_rate = 3_000.0

let over =
  { small with Harness.load = { small.Harness.load with Load.inflight = 64 } }

let test_batching_coalesces () =
  let r0 = Harness.run over ~seed:21 ~rate:overload_rate in
  let rb = Harness.run { over with Harness.batching = true } ~seed:21 ~rate:overload_rate in
  Alcotest.(check int) "baseline never batches" 0 r0.Harness.batched;
  Alcotest.(check bool) "batching absorbs hot-key waiters" true (rb.Harness.batched > 0);
  Alcotest.(check bool)
    (Printf.sprintf "batching lowers p99 past the knee (%.3f vs %.3f)" rb.Harness.p99
       r0.Harness.p99)
    true
    (rb.Harness.p99 < r0.Harness.p99)

let test_admission_sheds_and_bounds_tail () =
  let r0 = Harness.run over ~seed:23 ~rate:overload_rate in
  let ra = Harness.run { over with Harness.admission = true } ~seed:23 ~rate:overload_rate in
  Alcotest.(check int) "baseline never sheds" 0 r0.Harness.server_shed;
  Alcotest.(check bool) "admission sheds under overload" true (ra.Harness.server_shed > 0);
  Alcotest.(check int) "sheds are not failures" 0 ra.Harness.failed;
  Alcotest.(check bool)
    (Printf.sprintf "admission bounds the tail (%.3f vs %.3f)" ra.Harness.p99 r0.Harness.p99)
    true
    (ra.Harness.p99 < r0.Harness.p99)

let test_all_on_beats_baseline () =
  let r0 = Harness.run over ~seed:25 ~rate:overload_rate in
  let ra = Harness.run (Harness.all_on over) ~seed:25 ~rate:overload_rate in
  Alcotest.(check bool)
    (Printf.sprintf "all-on beats baseline p99 past the knee (%.3f vs %.3f)" ra.Harness.p99
       r0.Harness.p99)
    true
    (ra.Harness.p99 < r0.Harness.p99)

let test_p2c_runs_clean () =
  (* p2c is a read-path routing change: correctness must be unaffected *)
  let r0 = Harness.run small ~seed:27 ~rate:400.0 in
  let rp = Harness.run { small with Harness.p2c = true } ~seed:27 ~rate:400.0 in
  Alcotest.(check int) "no failures with p2c" 0 rp.Harness.failed;
  Alcotest.(check int) "same arrivals (same schedule)" r0.Harness.offered rp.Harness.offered;
  Alcotest.(check bool) "hit rate preserved" true
    (abs (rp.Harness.ok - r0.Harness.ok) < r0.Harness.offered / 20)

(* {2 Determinism pins} *)

(* Same (seed, scenario, rate) → the same bytes, run after run. *)
let test_seq_repeatable () =
  let a = Harness.to_line (Harness.run small ~seed:31 ~rate:400.0) in
  let b = Harness.to_line (Harness.run small ~seed:31 ~rate:400.0) in
  Alcotest.(check string) "sequential rerun byte-identical" a b

(* Pool fan-out over offered-load steps: --jobs must not change a byte.
   set_cap forces real worker domains even on a single-core CI box. *)
let test_pool_jobs_identical () =
  let rates = [ 200.0; 400.0; 800.0 ] in
  let step rate = Harness.to_line (Harness.run small ~seed:33 ~rate) in
  let seq = List.map step rates in
  Dpool.set_cap (Some 4);
  Fun.protect
    ~finally:(fun () -> Dpool.set_cap None)
    (fun () ->
      List.iter
        (fun jobs ->
          let par = Pool.map ~jobs step rates in
          List.iter2
            (Alcotest.(check string) (Printf.sprintf "jobs=%d byte-identical" jobs))
            seq par)
        [ 2; 4 ])

(* Fabric (parallel single-run engine): the same deployment over 4
   partitions must produce the same bytes whether the windows execute on
   1 or 4 worker domains. *)
let test_fabric_domains_identical () =
  let mode = Harness.Fab { parts = 4; domains = 4 } in
  let run () = Harness.run ~mode small ~seed:35 ~rate:400.0 in
  Dpool.set_cap (Some 1);
  let solo = Fun.protect ~finally:(fun () -> Dpool.set_cap None) run in
  Dpool.set_cap (Some 4);
  let wide = Fun.protect ~finally:(fun () -> Dpool.set_cap None) run in
  Alcotest.(check int) "solo collapses to one worker" 1 solo.Harness.workers;
  Alcotest.(check int) "wide uses four workers" 4 wide.Harness.workers;
  Alcotest.(check bool) "windowed execution" true (solo.Harness.windows > 0);
  Alcotest.(check string) "domains byte-identical"
    (Harness.to_line solo) (Harness.to_line wide);
  Alcotest.(check bool) "fabric run did real work" true (solo.Harness.offered > 500);
  Alcotest.(check int) "fabric accounting" solo.Harness.offered
    (solo.Harness.ok + solo.Harness.misses + solo.Harness.shed + solo.Harness.failed)

let () =
  Alcotest.run "serve"
    [
      ( "load",
        [
          Alcotest.test_case "client span" `Quick test_client_span;
          Alcotest.test_case "client words bounded" `Quick test_client_words_bounded;
        ] );
      ( "harness",
        [
          Alcotest.test_case "accounting" `Quick test_harness_accounting;
          Alcotest.test_case "web target" `Quick test_harness_web_target;
          Alcotest.test_case "warm start matches routing" `Quick test_warm_start_matches_routing;
        ] );
      ( "optimizations",
        [
          Alcotest.test_case "batching" `Quick test_batching_coalesces;
          Alcotest.test_case "admission" `Quick test_admission_sheds_and_bounds_tail;
          Alcotest.test_case "all-on" `Quick test_all_on_beats_baseline;
          Alcotest.test_case "p2c clean" `Quick test_p2c_runs_clean;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seq repeatable" `Quick test_seq_repeatable;
          Alcotest.test_case "pool jobs" `Quick test_pool_jobs_identical;
          Alcotest.test_case "fabric domains" `Quick test_fabric_domains_identical;
        ] );
    ]
