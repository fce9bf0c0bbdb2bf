(* Tests for the network substrate: transit-stub topology, testbed host
   models, packet transport with bandwidth queues. *)

open Splay_sim
open Splay_net

type Net.payload += Probe of int

(* {2 Topology} *)

let test_topology_shape () =
  let rng = Rng.create 1 in
  let topo = Topology.transit_stub rng in
  Alcotest.(check int) "500 routers by default" 500 (Topology.router_count topo);
  Alcotest.(check int) "490 stubs" 490 (Array.length (Topology.stub_routers topo))

let test_topology_delays () =
  let rng = Rng.create 2 in
  let topo = Topology.transit_stub ~transits:4 ~stubs_per_transit:3 rng in
  let stubs = Topology.stub_routers topo in
  (* matrix access goes through the Latency signature; routers play the
     host ids directly *)
  let lat = Latency.matrix topo ~stub_of:Fun.id in
  (* same stub: intra-stub delay *)
  Alcotest.(check (float 1e-9)) "intra-stub" (Topology.intra_stub_delay topo)
    (Latency.delay lat stubs.(0) stubs.(0));
  (* sibling stubs under the same transit: 2 x stub-transit one-way = 30 ms *)
  Alcotest.(check (float 1e-9)) "stub-stub same domain" 0.030
    (Latency.delay lat stubs.(0) stubs.(1));
  (* delays are symmetric and satisfy the triangle inequality on a sample *)
  let d a b = Latency.delay lat a b in
  Array.iter
    (fun s1 ->
      Array.iter
        (fun s2 ->
          Alcotest.(check (float 1e-9)) "symmetric" (d s1 s2) (d s2 s1);
          Array.iter
            (fun s3 ->
              Alcotest.(check bool) "triangle" true (d s1 s3 <= d s1 s2 +. d s2 s3 +. 1e-9))
            stubs)
        stubs)
    stubs

let test_topology_long_paths_cost_more () =
  let rng = Rng.create 3 in
  let topo = Topology.transit_stub rng in
  let stubs = Topology.stub_routers topo in
  let lat = Latency.matrix topo ~stub_of:Fun.id in
  (* crossing transits costs at least stub-transit + transit-transit hops *)
  let same = Latency.delay lat stubs.(0) stubs.(1) in
  (* find a pair on different transits: delays differ from the local one *)
  let far =
    Array.fold_left
      (fun acc s -> Float.max acc (Latency.delay lat stubs.(0) s))
      0.0 stubs
  in
  Alcotest.(check bool) "remote stubs cost more than local" true (far > same)

(* {2 Testbed} *)

let test_testbed_kinds () =
  let rng = Rng.create 4 in
  let pl = Testbed.planetlab ~n:10 rng in
  Alcotest.(check int) "pl size" 10 (Testbed.size pl);
  let mn = Testbed.modelnet ~hosts:20 rng in
  Alcotest.(check int) "mn size" 20 (Testbed.size mn);
  let cl = Testbed.cluster rng in
  Alcotest.(check int) "default cluster is the paper's 11 nodes" 11 (Testbed.size cl);
  let mixed = Testbed.mixed ~planetlab:5 ~modelnet:5 rng in
  Alcotest.(check int) "mixed size" 10 (Testbed.size mixed);
  Alcotest.(check bool) "mixed kinds" true
    ((Testbed.host mixed 0).Testbed.kind = Testbed.Planetlab
    && (Testbed.host mixed 9).Testbed.kind = Testbed.Modelnet)

let test_testbed_latency_ordering () =
  let rng = Rng.create 5 in
  let cl = Testbed.cluster rng in
  let pl = Testbed.planetlab ~n:10 rng in
  Alcotest.(check bool) "LAN is sub-millisecond" true (Testbed.base_delay cl 0 1 < 0.001);
  Alcotest.(check bool) "WAN is milliseconds" true (Testbed.base_delay pl 0 1 > 0.002);
  (* base delay is stable, the jittered delay varies around it *)
  Alcotest.(check (float 1e-12)) "base stable" (Testbed.base_delay pl 0 1)
    (Testbed.base_delay pl 0 1);
  let jittered = List.init 20 (fun _ -> Testbed.delay pl 0 1) in
  Alcotest.(check bool) "jitter varies" true
    (List.exists (fun d -> not (Float.equal d (List.hd jittered))) jittered)

let test_testbed_extra_host () =
  let rng = Rng.create 6 in
  let tb, ctl = Testbed.with_extra_host (Testbed.planetlab ~n:5 rng) in
  Alcotest.(check int) "appended last" 5 ctl;
  Alcotest.(check int) "size grew" 6 (Testbed.size tb);
  Alcotest.(check bool) "controller host is LAN-class" true
    ((Testbed.host tb ctl).Testbed.kind = Testbed.Cluster)

let test_service_delay_positive () =
  let rng = Rng.create 7 in
  let pl = Testbed.planetlab ~n:5 rng in
  for h = 0 to 4 do
    for _ = 1 to 20 do
      Alcotest.(check bool) "service delay >= 0" true (Testbed.service_delay pl h >= 0.0)
    done
  done

(* {2 Net} *)

let with_net ?(n = 4) kind f =
  let eng = Engine.create ~seed:8 () in
  let tb =
    match kind with
    | `Cluster -> Testbed.cluster ~n (Engine.rng eng)
    | `Modelnet bw -> Testbed.modelnet ~hosts:n ~bandwidth:bw (Engine.rng eng)
  in
  let net = Net.create eng tb in
  f eng net

let test_net_delivery () =
  with_net `Cluster (fun eng net ->
      let got = ref [] in
      Net.bind net (Addr.make 1 9) (fun ~src payload ->
          match payload with
          | Probe k -> got := (src.Addr.host, k, Engine.now eng) :: !got
          | _ -> ());
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 7);
      ignore (Engine.run eng);
      match !got with
      | [ (0, 7, t) ] -> Alcotest.(check bool) "delivered after positive delay" true (t > 0.0)
      | _ -> Alcotest.fail "expected exactly one delivery")

let test_net_unbound_drops () =
  with_net `Cluster (fun eng net ->
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 1);
      ignore (Engine.run eng);
      Alcotest.(check int) "dropped" 1 (Net.messages_dropped net);
      Alcotest.(check int) "sent counter" 1 (Net.messages_sent net))

let test_net_down_host () =
  with_net `Cluster (fun eng net ->
      let got = ref 0 in
      Net.bind net (Addr.make 1 9) (fun ~src:_ _ -> incr got);
      Net.set_host_up net 1 false;
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 1);
      ignore (Engine.run eng);
      Alcotest.(check int) "nothing delivered to a dead host" 0 !got;
      Net.set_host_up net 1 true;
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 2);
      ignore (Engine.run eng);
      Alcotest.(check int) "delivered after restart" 1 !got;
      (* sender down: silently dropped too *)
      Net.set_host_up net 0 false;
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 3);
      ignore (Engine.run eng);
      Alcotest.(check int) "dead sender drops" 1 !got)

let test_net_loss () =
  with_net `Cluster (fun eng net ->
      let got = ref 0 in
      Net.bind net (Addr.make 1 9) (fun ~src:_ _ -> incr got);
      Net.set_loss net 0.5;
      for _ = 1 to 200 do
        Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 0)
      done;
      ignore (Engine.run eng);
      Alcotest.(check bool)
        (Printf.sprintf "roughly half delivered (%d/200)" !got)
        true
        (!got > 60 && !got < 140);
      (* per-message override beats the global setting *)
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) ~loss:0.0 (Probe 1);
      let before = !got in
      ignore (Engine.run eng);
      Alcotest.(check int) "loss:0 always delivers" (before + 1) !got)

let test_net_bandwidth_serializes () =
  (* two 1 MB messages on a 1 Mbps link: store-and-forward pays the
     transmission twice (uplink then downlink), so the first arrives ~16 s
     in; the second is serialized ~8 s behind it *)
  let mbps = 1_000_000.0 /. 8.0 in
  with_net (`Modelnet mbps) (fun eng net ->
      let arrivals = ref [] in
      Net.bind net (Addr.make 1 9) (fun ~src:_ _ -> arrivals := Engine.now eng :: !arrivals);
      let size = 1_000_000 in
      Net.send net ~size ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 1);
      Net.send net ~size ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 2);
      ignore (Engine.run eng);
      match List.rev !arrivals with
      | [ t1; t2 ] ->
          Alcotest.(check bool) "first takes ~16s" true (t1 > 15.9 && t1 < 18.0);
          Alcotest.(check bool) "second serialized behind it" true (t2 -. t1 > 7.0)
      | _ -> Alcotest.fail "expected two arrivals")

let test_net_partition () =
  with_net ~n:4 `Cluster (fun eng net ->
      let got = ref 0 in
      Net.bind net (Addr.make 2 9) (fun ~src:_ _ -> incr got);
      Net.set_partition net (fun h -> if h < 2 then 0 else 1);
      Alcotest.(check bool) "cross blocked" true (Net.partitioned net 0 2);
      Alcotest.(check bool) "same side open" false (Net.partitioned net 2 3);
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 2 9) (Probe 1);
      Net.send net ~src:(Addr.make 3 1) ~dst:(Addr.make 2 9) (Probe 2);
      ignore (Engine.run eng);
      Alcotest.(check int) "only the same-side message arrived" 1 !got;
      Net.clear_partition net;
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 2 9) (Probe 3);
      ignore (Engine.run eng);
      Alcotest.(check int) "healed" 2 !got)

let test_net_bind_conflicts () =
  with_net `Cluster (fun _ net ->
      Net.bind net (Addr.make 0 5) (fun ~src:_ _ -> ());
      Alcotest.check_raises "double bind" (Invalid_argument "Net.bind: 0:5 already bound")
        (fun () -> Net.bind net (Addr.make 0 5) (fun ~src:_ _ -> ()));
      Net.unbind net (Addr.make 0 5);
      Net.bind net (Addr.make 0 5) (fun ~src:_ _ -> ());
      Alcotest.(check bool) "rebound" true (Net.is_bound net (Addr.make 0 5)))

let test_net_rtt_estimate () =
  with_net `Cluster (fun _ net ->
      Alcotest.(check bool) "rtt positive" true (Net.base_rtt net 0 1 > 0.0);
      Alcotest.(check (float 1e-12)) "rtt symmetric" (Net.base_rtt net 0 1) (Net.base_rtt net 1 0))

(* {2 Latency} *)

(* the retired direct matrix entry point, kept callable here to pin the
   Latency.matrix backend byte-identical to it *)
module Topology_direct = struct
  [@@@ocaml.alert "-deprecated"]

  let delay = Topology.delay
end

let prop_latency_symmetric_deterministic =
  QCheck.Test.make ~name:"synthetic latency is symmetric and seed-deterministic" ~count:500
    QCheck.(triple (int_bound 10_000) (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, a, b) ->
      let l1 = Latency.synthetic ~seed () in
      let l2 = Latency.synthetic ~seed () in
      let d = Latency.delay l1 a b in
      d >= 0.0
      && Float.equal d (Latency.delay l1 b a)
      && Float.equal d (Latency.delay l2 a b))

let prop_latency_uniform_range =
  QCheck.Test.make ~name:"uniform RTT maps every pair into [lo/2, hi/2)" ~count:500
    QCheck.(pair (int_bound 10_000) (int_bound 1_000_000))
    (fun (seed, a) ->
      let lo = 0.02 and hi = 0.2 in
      let l = Latency.synthetic ~dist:(Latency.Uniform { lo; hi }) ~seed () in
      let d = Latency.delay l a (a + 1) in
      d >= lo /. 2.0 && d < hi /. 2.0)

let prop_addr_to_string =
  QCheck.Test.make ~name:"Addr.to_string = sprintf \"%d:%d\"" ~count:1000
    QCheck.(pair (oneof [ small_nat; pos_int ]) (oneof [ small_nat; pos_int ]))
    (fun (host, port) ->
      String.equal (Addr.to_string (Addr.make host port)) (Printf.sprintf "%d:%d" host port))

let test_addr_to_string_edges () =
  List.iter
    (fun (h, p) ->
      Alcotest.(check string) "printf form" (Printf.sprintf "%d:%d" h p)
        (Addr.to_string (Addr.make h p)))
    [ (0, 0); (9, 10); (10, 9); (99, 100); (max_int, max_int); (-1, 5); (5, -12); (min_int, 0) ]

let test_latency_uniform_mean () =
  (* hash draws are uniform: the sample mean over many pairs must sit
     near the distribution mean, (lo+hi)/2 RTT = (lo+hi)/4 one-way *)
  let lo = 0.02 and hi = 0.2 in
  let l = Latency.synthetic ~dist:(Latency.Uniform { lo; hi }) ~seed:42 () in
  let n = 20_000 in
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    sum := !sum +. Latency.delay l i (i + 1_000_000)
  done;
  let mean = !sum /. Float.of_int n in
  let expect = (lo +. hi) /. 4.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f within 5%% of %.4f" mean expect)
    true
    (Float.abs (mean -. expect) < 0.05 *. expect)

let test_latency_constant_and_intra () =
  let l = Latency.synthetic ~dist:(Latency.Constant 0.08) ~intra_host:1e-4 ~seed:9 () in
  Alcotest.(check (float 1e-12)) "every pair at RTT/2" 0.04 (Latency.delay l 3 900_000);
  Alcotest.(check (float 1e-12)) "self at intra_host" 1e-4 (Latency.delay l 5 5)

let test_latency_classes_weights () =
  (* a 50/50 two-class mixture: observed class fractions near the weights *)
  let l =
    Latency.synthetic
      ~dist:(Latency.Classes [| (0.5, 0.02); (0.5, 0.1) |])
      ~seed:17 ()
  in
  let n = 10_000 in
  let fast = ref 0 in
  for i = 0 to n - 1 do
    if Latency.delay l i (i + 500_000) < 0.03 then incr fast
  done;
  let frac = Float.of_int !fast /. Float.of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "fast-class fraction %.3f near 0.5" frac)
    true
    (Float.abs (frac -. 0.5) < 0.05)

let test_latency_matrix_equals_topology () =
  let rng = Rng.create 21 in
  let topo = Topology.transit_stub ~transits:4 ~stubs_per_transit:3 rng in
  let stubs = Topology.stub_routers topo in
  let lat = Latency.matrix topo ~stub_of:Fun.id in
  Array.iter
    (fun s1 ->
      Array.iter
        (fun s2 ->
          Alcotest.(check (float 0.0))
            "matrix backend byte-identical to direct access"
            (Topology_direct.delay topo s1 s2) (Latency.delay lat s1 s2))
        stubs)
    stubs

let test_testbed_synthetic_end_to_end () =
  (* the compact backend drives a real delivery: hash-seeded delays in,
     message out, and base_delay answers stay stable and symmetric *)
  let eng = Engine.create ~seed:33 () in
  let tb = Testbed.synthetic ~hosts:100_000 (Engine.rng eng) in
  Alcotest.(check int) "size" 100_000 (Testbed.size tb);
  Alcotest.(check (float 1e-12)) "base delay stable"
    (Testbed.base_delay tb 0 99_999) (Testbed.base_delay tb 0 99_999);
  Alcotest.(check (float 1e-12)) "base delay symmetric"
    (Testbed.base_delay tb 0 99_999) (Testbed.base_delay tb 99_999 0);
  let net = Net.create eng tb in
  let got = ref [] in
  Net.bind net (Addr.make 99_999 9) (fun ~src payload ->
      match payload with
      | Probe k -> got := (src.Addr.host, k, Engine.now eng) :: !got
      | _ -> ());
  Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 99_999 9) (Probe 5);
  ignore (Engine.run eng);
  match !got with
  | [ (0, 5, t) ] -> Alcotest.(check bool) "delivered after positive delay" true (t > 0.0)
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_net_host_out_of_range () =
  (* a send naming a host id outside the testbed is dropped and counted on
     both send paths; the compact one used to index its per-host arrays
     unchecked and crash the process *)
  let hosts = 100 in
  List.iter
    (fun (kind, make) ->
      let eng = Engine.create ~seed:5 () in
      let net = Net.create eng (make (Engine.rng eng)) in
      let got = ref 0 in
      Net.bind net (Addr.make 1 9) (fun ~src:_ _ -> incr got);
      List.iter
        (fun (src, dst) -> Net.send net ~src:(Addr.make src 1) ~dst:(Addr.make dst 9) (Probe 1))
        [ (0, hosts); (0, -1); (hosts, 1); (-1, 1); (0, 100_000) ];
      Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make 1 9) (Probe 2);
      ignore (Engine.run eng);
      Alcotest.(check int) (kind ^ ": sent") 6 (Net.messages_sent net);
      Alcotest.(check int) (kind ^ ": dropped") 5 (Net.messages_dropped net);
      Alcotest.(check int) (kind ^ ": in-range send still delivered") 1 !got;
      List.iter
        (fun h ->
          match Net.host_up net h with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s: host_up %d answered" kind h)
        [ hosts; -1 ])
    [
      ("classic", fun rng -> Testbed.cluster ~n:hosts rng);
      ("synthetic", fun rng -> Testbed.synthetic ~hosts rng);
    ]

let test_latency_of_fn () =
  (* wrap replayed measurement data: the model answers exactly what the
     function says and carries the given identity *)
  let grid a b = 0.001 *. Float.of_int (abs (a - b) mod 50) in
  let l = Latency.of_fn ~name:"grid" ~seed:5 grid in
  Alcotest.(check string) "name" "grid" (Latency.name l);
  Alcotest.(check int) "seed" 5 (Latency.seed l);
  for i = 0 to 100 do
    let a = i * 37 and b = i * 91 in
    Alcotest.(check (float 0.0)) "delay is the function's answer" (grid a b)
      (Latency.delay l a b)
  done;
  let l0 = Latency.of_fn ~name:"flat" (fun _ _ -> 0.01) in
  Alcotest.(check int) "seed defaults to 0" 0 (Latency.seed l0);
  (* an of_fn model drives a synthetic testbed like any other backend *)
  let eng = Engine.create ~seed:41 () in
  let tb = Testbed.synthetic ~latency:l ~hosts:1_000 (Engine.rng eng) in
  Alcotest.(check (float 1e-12)) "testbed answers through the fn" (grid 3 903)
    (Testbed.base_delay tb 3 903)

let test_synthetic_down_up_at_scale () =
  (* host down/up on the compact struct-of-arrays testbed, at a size where
     per-host records would be prohibitive: sends to (or from) a down host
     drop silently, restart resumes delivery, and the one-bit state never
     materialises host records *)
  let n = 50_000 in
  let eng = Engine.create ~seed:34 () in
  let tb = Testbed.synthetic ~hosts:n (Engine.rng eng) in
  let net = Net.create eng tb in
  let last = n - 1 in
  let got = ref 0 in
  Net.bind net (Addr.make last 9) (fun ~src:_ _ -> incr got);
  Testbed.set_host_up tb last false;
  Alcotest.(check bool) "down visible through the testbed" false (Testbed.host_up tb last);
  Alcotest.(check bool) "down visible through the net" false (Net.host_up net last);
  Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make last 9) (Probe 1);
  ignore (Engine.run eng);
  Alcotest.(check int) "nothing delivered while down" 0 !got;
  Net.set_host_up net last true;
  Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make last 9) (Probe 2);
  ignore (Engine.run eng);
  Alcotest.(check int) "delivery resumes after restart" 1 !got;
  (* a down *sender* drops too *)
  Net.set_host_up net 0 false;
  Net.send net ~src:(Addr.make 0 1) ~dst:(Addr.make last 9) (Probe 3);
  ignore (Engine.run eng);
  Alcotest.(check int) "dead sender drops" 1 !got;
  Net.set_host_up net 0 true;
  (* independence: downing one host leaves a spot-check of others up *)
  Testbed.set_host_up tb 777 false;
  List.iter
    (fun h -> Alcotest.(check bool) "other hosts unaffected" true (Testbed.host_up tb h))
    [ 0; 776; 778; last ];
  Testbed.set_host_up tb 777 true;
  (* still no per-host records behind any of this *)
  match Testbed.host tb 777 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "synthetic testbed unexpectedly materialised host records"

let latency_qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_latency_symmetric_deterministic; prop_latency_uniform_range ]

let () =
  Alcotest.run "splay_net"
    [
      ( "topology",
        [
          Alcotest.test_case "shape" `Quick test_topology_shape;
          Alcotest.test_case "delays" `Quick test_topology_delays;
          Alcotest.test_case "long paths" `Quick test_topology_long_paths_cost_more;
        ] );
      ( "testbed",
        [
          Alcotest.test_case "kinds" `Quick test_testbed_kinds;
          Alcotest.test_case "latency ordering" `Quick test_testbed_latency_ordering;
          Alcotest.test_case "extra host" `Quick test_testbed_extra_host;
          Alcotest.test_case "service delay" `Quick test_service_delay_positive;
        ] );
      ( "net",
        [
          Alcotest.test_case "delivery" `Quick test_net_delivery;
          Alcotest.test_case "unbound drops" `Quick test_net_unbound_drops;
          Alcotest.test_case "down host" `Quick test_net_down_host;
          Alcotest.test_case "loss" `Quick test_net_loss;
          Alcotest.test_case "bandwidth serializes" `Quick test_net_bandwidth_serializes;
          Alcotest.test_case "partition" `Quick test_net_partition;
          Alcotest.test_case "bind conflicts" `Quick test_net_bind_conflicts;
          Alcotest.test_case "rtt estimate" `Quick test_net_rtt_estimate;
          Alcotest.test_case "host out of range" `Quick test_net_host_out_of_range;
          Alcotest.test_case "addr to_string edges" `Quick test_addr_to_string_edges;
          QCheck_alcotest.to_alcotest prop_addr_to_string;
        ] );
      ( "latency",
        [
          Alcotest.test_case "uniform mean" `Quick test_latency_uniform_mean;
          Alcotest.test_case "constant and intra-host" `Quick test_latency_constant_and_intra;
          Alcotest.test_case "class weights" `Quick test_latency_classes_weights;
          Alcotest.test_case "matrix = topology" `Quick test_latency_matrix_equals_topology;
          Alcotest.test_case "of_fn" `Quick test_latency_of_fn;
          Alcotest.test_case "synthetic testbed end to end" `Quick
            test_testbed_synthetic_end_to_end;
          Alcotest.test_case "synthetic down/up at scale" `Quick test_synthetic_down_up_at_scale;
        ]
        @ latency_qsuite );
    ]
