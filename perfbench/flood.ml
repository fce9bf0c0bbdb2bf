(* flood: a 100k-node one-way epidemic flood over the compact synthetic
   testbed — a degree-8 random circulant peer graph, fanout 6, one rumor
   injected at node 0, run until it burns out. One deployment spread over 2
   engine partitions, executed on 2 worker domains of the parallel engine.

   No replies and no application logic: host time is engine dispatch,
   Net/Latency and Par windows. *)

open Splay
open Common
module Apps = Splay_apps

let nodes = 100_000
let parts = 2
let degree = 8
let config = { Apps.Epidemic.fanout = 6; rpc_timeout = 5.0; oneway = true }

type built = {
  fab : Fabric.t;
  epi : Apps.Epidemic.node option array;
  testbed_s : float;
  install_s : float;
}

let build ~seed tr =
  let host = Option.map (fun t -> t.host) tr in
  Spans.wrap host "flood.setup" @@ fun root ->
  let t0 = wall () in
  let fab =
    Spans.wrap host ?parent:root "net.testbed" (fun _ -> Fabric.create ~seed ~hosts:nodes ~parts ())
  in
  let t1 = wall () in
  let graph_rng = Rng.split (Engine.rng (Fabric.engine fab 0)) in
  let strides = Array.init degree (fun _ -> 1 + Rng.int graph_rng (nodes - 1)) in
  let addrs = Array.init nodes (fun i -> Addr.make i 9000) in
  let epi = Array.make nodes None in
  Spans.wrap host ?parent:root "epidemic.install" (fun _ ->
      for i = 0 to nodes - 1 do
        let peers = Array.to_list (Array.map (fun s -> addrs.((i + s) mod nodes)) strides) in
        let env = Env.create (Fabric.net_of_host fab i) ~me:addrs.(i) ~nodes:peers in
        Apps.Epidemic.app ~config ~register:(fun x -> epi.(i) <- Some x) env;
        if i = 0 then
          ignore
            (Env.thread env ~name:"rumor-origin" (fun () ->
                 match epi.(0) with Some x -> Apps.Epidemic.broadcast x "r0" | None -> ()))
      done);
  { fab; epi; testbed_s = t1 -. t0; install_s = wall () -. t1 }

(* One repetition; [domains] is 2 except for the identical-work twin that
   [par.speedup_x] divides by. *)
let rep ?(domains = parts) ~seed tr =
  with_metrics_plane (tr <> None) @@ fun () ->
  let base = words_base () in
  let t0 = wall () in
  let b = build ~seed tr in
  let setup_s = wall () -. t0 in
  let words_per_node = words_per_node base nodes in
  let c0 = cpu () and t1 = wall () in
  let info =
    Spans.wrap (Option.map (fun t -> t.host) tr) "flood.run" (fun root ->
        Spans.wrap (Option.map (fun t -> t.host) tr) ?parent:root "sim.run" (fun _ ->
            Fabric.run ~domains b.fab))
  in
  let run_s = wall () -. t1 and cpu_s = cpu () -. c0 in
  let covered = Array.fold_left (fun a x -> match x with Some e when Apps.Epidemic.has_received e "r0" -> a + 1 | _ -> a) 0 b.epi in
  let msgs = Fabric.messages_sent b.fab and bytes = Fabric.bytes_sent b.fab in
  let dropped = Fabric.messages_dropped b.fab in
  let engines = List.init parts (Fabric.engine b.fab) in
  let clock = List.fold_left (fun a e -> Float.max a (Engine.now e)) 0.0 engines in
  let depth = List.fold_left (fun a e -> max a (Engine.stats e).Engine.max_queue_depth) 0 engines in
  let coverage = Float.of_int covered /. Float.of_int nodes in
  let digest =
    Printf.sprintf "covered=%d msgs=%d bytes=%d dropped=%d events=%d windows=%d clock=%h depth=%d"
      covered msgs bytes dropped info.Par.events_fired info.Par.windows clock depth
  in
  let f = Float.of_int in
  let layers =
    [
      ("sim.events", f info.Par.events_fired);
      ("sim.ns_per_event", run_s *. 1e9 /. f (max 1 info.Par.events_fired));
      ("sim.max_queue_depth", f depth);
      ("par.windows", f info.Par.windows);
      ("par.workers", f (Dpool.effective (min domains parts)));
      ("par.cpu_per_wall", cpu_s /. run_s);
      ("net.testbed_s", b.testbed_s);
      ("net.msgs", f msgs);
      ("net.bytes", f bytes);
      ("net.dropped", f dropped);
      ("net.msgs_per_op", f msgs /. f (max 1 covered));
      ("epidemic.install_s", b.install_s);
    ]
    @ opt_layer "net.link_wait_p99_s" (Option.map fst (obs_quantile "net.link_wait" 0.99))
    @ obs_counters tr
  in
  {
    setup_s;
    run_s;
    cpu_s;
    words_per_node;
    ok_frac = coverage;
    attempted = msgs;
    failed = dropped;
    digest;
    checks = [ (Printf.sprintf "flood coverage %.5f >= 0.999" coverage, coverage >= 0.999) ];
    layers;
    slices = None;
    notes =
      [
        Printf.sprintf "flood: %d nodes, %d reached, %d deliveries, burn-out at sim t=%.6f s"
          nodes covered (msgs - dropped) clock;
      ];
  }
