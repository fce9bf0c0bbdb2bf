(* serve_dht: a 10k-node warm Pastry ring running Dht_store (3 replicas,
   2 ms service cost, batching + p2c + admission on), loaded open-loop by
   1M virtual clients through 64 gateways: Poisson x diurnal arrivals at
   4,000 req/s (the baseline knee) for 10 sim seconds, 90% gets, Zipf s=1
   over 1,000 keys.

   Built from public calls only — Pastry.assemble, Dht_store.create,
   Dht_store.put (the preload goes through the store's own put path, so
   replica placement is the store's business), Load.run and Engine.run —
   so set-up and the per-request service span are timed from outside.
   Load's arrivals are virtual-time events: the generator's lateness is
   zero by construction, and latency runs from the intended arrival. *)

open Splay
open Common
module Apps = Splay_apps
module Load = Splay_serve.Load

let nodes = 10_000
let gateways = 64
let replicas = 3
let serve_cost = 0.002
let rate = 4_000.0
let duration = 10.0
let keys = 1_000
let preloaders = 32

(* sim seconds per timed slice of the measured phase *)
let slice = 0.1

(* requests answered OK within this limit count towards goodput; it sits
   between the workload's p50 and p99 *)
let goodput_limit = 1.0

let load_config =
  {
    Load.default with
    Load.clients = 1_000_000;
    rate;
    duration;
    keys;
    inflight = 64;
    (* sized above any offered count this schedule can produce (the peak
       arrival intensity times the duration, doubled), so the latency
       store keeps every sample and percentiles are exact *)
    sketch_capacity = int_of_float (2.0 *. rate *. (1.0 +. Load.default.Load.diurnal_amplitude) *. duration);
  }

let store_config =
  {
    Apps.Dht_store.replicas;
    (* no churn: republish off and entries immortal, so the engine drains
       when the load does *)
    republish_interval = 0.0;
    entry_ttl = Float.max_float;
    (* overload must surface as latency, never as a spurious timeout *)
    rpc_timeout = 1e6;
    serve_cost;
    batching = true;
    p2c = true;
    admission = true;
    token_rate = 0.9 /. serve_cost;
    token_burst = 32.0;
    slo_budget = 0.05;
  }

(* Per-request record of the benchmark's wrapper around the store call. *)
type calls = {
  t_start : Dist.t;  (** sim time the Dht_store call began *)
  t_stop : Dist.t;
  outcome : Buffer.t;  (** 'o' ok, 'm' miss, 's' shed, 'f' failed *)
  is_get : Buffer.t;
}

let rep ~seed tr =
  with_metrics_plane (tr <> None) @@ fun () ->
  let host = Option.map (fun t -> t.host) tr in
  let base = words_base () in
  let t0 = wall () in
  let timed name parent f =
    let a = wall () in
    let r = Spans.wrap host ?parent name (fun _ -> f ()) in
    (r, wall () -. a)
  in
  let eng, net, envs, stores, testbed_s, assemble_s, preload_s, acks =
    Spans.wrap host "serve.setup" @@ fun root ->
    let eng = Engine.create ~seed () in
    let tb, testbed_s =
      timed "net.testbed" root (fun () -> Testbed.synthetic ~hosts:nodes (Engine.rng eng))
    in
    let net = Net.create eng tb in
    let pcfg = Apps.Pastry.default_config in
    let spacing = Splay_runtime.Misc.pow2 pcfg.Apps.Pastry.bits / nodes in
    let ring = Array.init nodes (fun i -> Apps.Node.make ~id:(i * spacing) ~addr:(Addr.make i 9000)) in
    let envs, _ =
      timed "env.create" root (fun () ->
          Array.init nodes (fun i -> Env.create net ~me:ring.(i).Apps.Node.addr))
    in
    let pastries = Array.make nodes None in
    let (), assemble_s =
      timed "pastry.assemble" root (fun () ->
          for i = 0 to nodes - 1 do
            Apps.Pastry.assemble ~config:pcfg ~ring ~index:i
              ~register:(fun p -> pastries.(i) <- Some p)
              envs.(i)
          done)
    in
    let stores, _ =
      timed "dht.create" root (fun () ->
          Array.map
            (function
              | Some p -> Apps.Dht_store.create ~config:store_config p
              | None -> failwith "serve_dht: Pastry.assemble did not register")
            pastries)
    in
    (* preload every key through the store's own put path, from
       [preloaders] concurrent writers on the gateway nodes *)
    let acks = Array.make (keys + 1) 0 in
    let value = String.make load_config.Load.value_size 'v' in
    let (), preload_s =
      timed "dht.preload" root (fun () ->
          for w = 0 to preloaders - 1 do
            ignore
              (Env.thread envs.(w mod gateways) ~name:"preload" (fun () ->
                   let k = ref (w + 1) in
                   while !k <= keys do
                     let key = "k" ^ Int.to_string !k in
                     acks.(!k) <- fst (Apps.Dht_store.put_r stores.(w mod gateways) ~key ~value);
                     k := !k + preloaders
                   done))
          done;
          ignore (Engine.run eng))
    in
    (eng, net, envs, stores, testbed_s, assemble_s, preload_s, acks)
  in
  let t_built = wall () in
  let words_per_node = words_per_node base nodes in
  let calls =
    { t_start = Dist.create (); t_stop = Dist.create (); outcome = Buffer.create 65536; is_get = Buffer.create 65536 }
  in
  let issue g op =
    let s = Engine.now eng in
    let get, r =
      match op with
      | Load.Get key -> (
          ( true,
            match Apps.Dht_store.get_r stores.(g) ~key with
            | `Value _ -> `Ok
            | `Miss -> `Miss
            | `Shed -> `Shed ))
      | Load.Put (key, value) -> (
          ( false,
            match Apps.Dht_store.put_r stores.(g) ~key ~value with
            | a, _ when a > 0 -> `Ok
            | _, sh when sh > 0 -> `Shed
            | _ -> `Failed ))
    in
    Dist.add calls.t_start s;
    Dist.add calls.t_stop (Engine.now eng);
    Buffer.add_char calls.outcome
      (match r with `Ok -> 'o' | `Miss -> 'm' | `Shed -> 's' | `Failed -> 'f');
    Buffer.add_char calls.is_get (if get then 'g' else 'p');
    r
  in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 stores in
  let served0 = sum Apps.Dht_store.served_count
  and batched0 = sum Apps.Dht_store.batched_count
  and shed0 = sum Apps.Dht_store.shed_count in
  let calls0 = Array.fold_left (fun a e -> a + Rpc.calls_issued e) 0 envs in
  let msgs0 = Net.messages_sent net and bytes0 = Net.bytes_sent net in
  let drop0 = Net.messages_dropped net in
  let ev0 = (Engine.stats eng).Engine.events_fired in
  let t_load = wall () in
  let stats = Load.run load_config ~seed ~part:0 ~parts:1 ~gateways:(Array.sub envs 0 gateways) ~issue in
  let setup_s = t_built -. t0 +. (wall () -. t_load) in
  let c0 = cpu () and t1 = wall () in
  let sim0 = Engine.now eng in
  let st, sl =
    Spans.wrap host "serve.run" (fun root ->
        Spans.wrap host ?parent:root "sim.run" (fun _ -> run_sliced eng ~dt:slice))
  in
  let run_s = wall () -. t1 and cpu_s = cpu () -. c0 in
  let f = Float.of_int in
  let offered = stats.Load.offered and ok = stats.Load.ok in
  let miss = stats.Load.misses and shed = stats.Load.shed and failed = stats.Load.failed in
  let lat = sorted_copy (Sink.to_dist stats.Load.lat |> Dist.values) in
  let starts = Dist.values calls.t_start and stops = Dist.values calls.t_stop in
  let n_calls = Array.length starts in
  let service = sorted_copy (Array.map2 ( -. ) stops starts) in
  (* OK answers within the limit: samples within it less every non-OK
     answer (exact when, as checked below, there are no misses or failures
     and no shed answer is slower than the limit — a lower bound otherwise) *)
  let within = Array.fold_left (fun a x -> if x <= goodput_limit then a + 1 else a) 0 lat in
  let goodput = f (max 0 (within - miss - shed - failed)) /. duration in
  let served = sum Apps.Dht_store.served_count - served0 in
  let batched = sum Apps.Dht_store.batched_count - batched0 in
  let sshed = sum Apps.Dht_store.shed_count - shed0 in
  let rpc_calls = Array.fold_left (fun a e -> a + Rpc.calls_issued e) 0 envs - calls0 in
  let msgs = Net.messages_sent net - msgs0 and bytes = Net.bytes_sent net - bytes0 in
  let dropped = Net.messages_dropped net - drop0 in
  let events = st.Engine.events_fired - ev0 in
  let preload_ok = Array.for_all (fun a -> a = replicas) (Array.sub acks 1 keys) in
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf
    (Printf.sprintf "offered=%d ok=%d miss=%d shed=%d failed=%d served=%d batched=%d sshed=%d rpc=%d msgs=%d bytes=%d events=%d clock=%h;"
       offered ok miss shed failed served batched sshed rpc_calls msgs bytes events (Engine.now eng));
  digest_floats buf lat;
  digest_floats buf service;
  (match tr with
  | None -> ()
  | Some t ->
      for i = 0 to n_calls - 1 do
        let o = Buffer.nth calls.outcome i in
        Spans.add t.sim ~tid:(i + 1)
          ~attrs:[ ("outcome", String.make 1 o) ]
          (if Buffer.nth calls.is_get i = 'g' then "dht.get" else "dht.put")
          ~start:starts.(i) ~stop:stops.(i)
      done);
  let qs = [ ("p50_s", 0.5); ("p99_s", 0.99); ("p999_s", 0.999) ] in
  let layers =
    [
      ("sim.events", f events);
      ("sim.ns_per_event", run_s *. 1e9 /. f (max 1 events));
      ("sim.max_queue_depth", f st.Engine.max_queue_depth);
      ("par.cpu_per_wall", cpu_s /. run_s);
      ("net.testbed_s", testbed_s);
      ("net.msgs", f msgs);
      ("net.bytes", f bytes);
      ("net.dropped", f dropped);
      ("net.msgs_per_op", f msgs /. f (max 1 offered));
      ("rpc.calls", f rpc_calls);
      ("rpc.calls_per_req", f rpc_calls /. f (max 1 offered));
      ("pastry.assemble_s", assemble_s);
      ("dht.preload_s", preload_s);
      ("dht.served", f served);
      ("dht.batched", f batched);
      ("dht.shed", f sshed);
      ("load.words_per_client", f stats.Load.setup_words /. f load_config.Load.clients);
      ("load.goodput_rps", goodput);
      ("load.offered", f offered);
    ]
    @ pct_layers "load.latency_" lat qs
    @ pct_layers "dht.service_" service [ ("p50_s", 0.5); ("p99_s", 0.99) ]
    @ opt_layer "net.link_wait_p99_s" (Option.map fst (obs_quantile "net.link_wait" 0.99))
    @ obs_counters tr
    @ opt_layer "rpc.latency_p50_s" (Option.map fst (obs_quantile "rpc.latency" 0.5))
    @ opt_layer "rpc.latency_p99_s" (Option.map fst (obs_quantile "rpc.latency" 0.99))
    @ opt_layer "load.gateway_wait_p99_s" (Option.map fst (obs_quantile "serve.queue_wait" 0.99))
  in
  {
    setup_s;
    run_s;
    cpu_s;
    words_per_node;
    ok_frac = f ok /. f (max 1 offered);
    attempted = offered;
    failed = miss + shed + failed;
    digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    checks =
      [
        ( Printf.sprintf "preload: every key acknowledged by all %d replicas" replicas, preload_ok );
        ( Printf.sprintf "ok+miss+shed+failed = offered (%d+%d+%d+%d = %d)" ok miss shed failed offered,
          ok + miss + shed + failed = offered );
        (Printf.sprintf "zero misses (%d) and zero failed (%d)" miss failed, miss = 0 && failed = 0);
        ( Printf.sprintf "latency store exact (%d samples, capacity %d)" (Array.length lat)
            load_config.Load.sketch_capacity,
          Array.length lat = offered && offered < load_config.Load.sketch_capacity );
        (Printf.sprintf "one store call per request (%d)" n_calls, n_calls = offered);
      ];
    layers;
    slices = Some (sl.s_wall, sl.s_cpu);
    notes =
      [
        Printf.sprintf "serve_dht: offered=%d ok=%d miss=%d shed=%d failed=%d over %.0f sim s from t=%.6f; %d events, %d messages"
          offered ok miss shed failed duration sim0 events msgs;
        pct_note "request latency from intended arrival (sim s)" lat qs;
        pct_note "Dht_store call (sim s)" service [ ("p50", 0.5); ("p99", 0.99) ];
        Printf.sprintf "goodput (OK within %.1f s): %.1f req/s; generator %.3f words/client"
          goodput_limit goodput (f stats.Load.setup_words /. f load_config.Load.clients);
      ];
  }
