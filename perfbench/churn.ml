(* churn: the paper's Fig 11. Pastry deployed through the simulated
   controller and daemons on the 450-host PlanetLab model, then an
   Overnet-like synthetic availability trace (~550 concurrent nodes) sped
   up x10 (~14% of the nodes change state per minute) replayed by
   Replayer while 8 closed-loop drivers issue lookups.

   Host time goes to the controller's deploy path, joins, stabilisation and
   RPC timeouts; Dht_store, Load and Par are not on this path. *)

open Splay
open Common
module Apps = Splay_apps

let hosts = 450
let concurrent = 550
let speedup = 10.0
let drivers = 8
let fail_bound = 0.25

(* Like the paper's Fig 11, which replays one Overnet trace, every run
   replays the same availability trace (the one bench/fig11.ml draws); the
   seed draws the testbed, the overlay ids and join order, the trace's
   mapping onto instances and the lookups. *)
let trace_seed = 1111

(* sim seconds per timed slice of the engine run *)
let slice = 1.0

let pastry_config =
  {
    Apps.Pastry.default_config with
    join_delay_per_position = 0.02;
    (* aggressive timeouts, as one would configure for live churn *)
    rpc_timeout = 2.0;
    stabilize_interval = 3.0;
  }

type lookups = { start : Dist.t; stop : Dist.t; hops : Dist.t; ok : Buffer.t }

let rep ~seed tr =
  with_metrics_plane (tr <> None) @@ fun () ->
  let host = Option.map (fun t -> t.host) tr in
  let trace = Transform.speedup speedup (Trace.synthetic_overnet ~concurrent ~duration:3000.0 (Rng.create trace_seed)) in
  let init_pop = Trace.population trace ~at:0.0 in
  let base = words_base () in
  let t0 = wall () in
  let root = Option.map (fun h -> Spans.open_ h "churn.setup" ~at:t0) host in
  let engine = Engine.create ~seed () in
  let tb0, testbed_s =
    let a = wall () in
    let tb = Spans.wrap host ?parent:root "net.testbed" (fun _ -> Testbed.planetlab ~n:hosts (Engine.rng engine)) in
    (tb, wall () -. a)
  in
  let testbed, ctl_host = Testbed.with_extra_host tb0 in
  let net = Net.create engine testbed in
  let ctl = Controller.create net ~host:ctl_host in
  let daemons =
    Spans.wrap host ?parent:root "ctl.boot_daemons" (fun _ ->
        Controller.boot_daemons ctl (List.init (Testbed.size tb0) Fun.id))
  in
  let nodes = ref [] in
  let lk = { start = Dist.create (); stop = Dist.create (); hops = Dist.create (); ok = Buffer.create 4096 } in
  let phase = Hashtbl.create 8 in
  let mark name = Hashtbl.replace phase name (wall (), cpu (), Engine.now engine) in
  let env_calls () = List.fold_left (fun a x -> a + Rpc.calls_issued (Apps.Pastry.node_env x)) 0 !nodes in
  let words = ref nan and calls0 = ref 0 and msgs0 = ref 0 and live_end = ref 0 in
  let bytes0 = ref 0 and drop0 = ref 0 in
  let ev0 = ref 0 and ev1 = ref 0 in
  let replay = ref None in
  let main () =
    mark "deploy";
    let dep =
      Spans.wrap host ?parent:root "ctl.deploy" (fun _ ->
          Controller.deploy ctl ~name:"pastry"
            ~main:(Apps.Pastry.app ~config:pastry_config ~register:(fun x -> nodes := x :: !nodes))
            (Descriptor.make ~bootstrap:(Descriptor.Head 1) init_pop))
    in
    (* convergence: joins are staggered by position, then stabilisation *)
    Spans.wrap host ?parent:root "pastry.converge" (fun _ ->
        Env.sleep ((Float.of_int init_pop *. pastry_config.Apps.Pastry.join_delay_per_position) +. 120.0));
    mark "setup_end";
    Option.iter (fun h -> Option.iter (fun r -> Spans.close h r ~at:(wall ())) root) host;
    words := words_per_node base init_pop;
    calls0 := env_calls ();
    msgs0 := Net.messages_sent net;
    bytes0 := Net.bytes_sent net;
    drop0 := Net.messages_dropped net;
    ev0 := (Engine.stats engine).Engine.events_fired;
    mark "run";
    let run_root = Option.map (fun h -> Spans.open_ h "churn.run" ~at:(wall ())) host in
    let stop = ref false in
    let rng = Rng.split (Engine.rng engine) in
    for _ = 1 to drivers do
      ignore
        (Env.thread (Controller.env ctl) ~name:"lookup-driver" (fun () ->
             let lrng = Rng.split rng in
             while not !stop do
               Env.sleep (0.5 +. Rng.float lrng 1.5);
               match List.filter (fun x -> not (Apps.Pastry.is_stopped x)) !nodes with
               | [] -> ()
               | live ->
                   let origin = Rng.pick_list lrng live in
                   let key = Rng.int lrng (Splay_runtime.Misc.pow2 32) in
                   let s = Engine.now engine in
                   let r = Apps.Pastry.lookup origin key in
                   Dist.add lk.start s;
                   Dist.add lk.stop (Engine.now engine);
                   (match r with
                   | Some (_, h) ->
                       Dist.add lk.hops (Float.of_int h);
                       Buffer.add_char lk.ok 'o'
                   | None ->
                       Dist.add lk.hops 0.0;
                       Buffer.add_char lk.ok 'f')
             done))
    done;
    replay := Some (snd (Replayer.run_trace dep trace));
    Env.sleep (Trace.duration trace +. 30.0);
    stop := true;
    live_end := Controller.live_count dep;
    ev1 := (Engine.stats engine).Engine.events_fired;
    mark "run_end";
    Option.iter (fun h -> Option.iter (fun r -> Spans.close h r ~at:(wall ())) run_root) host;
    List.iter Daemon.shutdown daemons;
    ignore (Engine.schedule engine ~delay:0.0 (fun () -> Env.stop (Controller.env ctl)))
  in
  ignore (Env.thread (Controller.env ctl) ~name:"bench-main" main);
  let st, sl = run_sliced ~horizon:100_000.0 engine ~dt:slice in
  let get name = match Hashtbl.find_opt phase name with Some p -> p | None -> failwith ("churn: phase " ^ name ^ " never reached") in
  let wd, _, sd = get "deploy" and ws, _, ss = get "setup_end" in
  let _, _, sr = get "run" and _, _, se = get "run_end" in
  let run_wall, run_cpu = slices_between sl ~lo:sr ~hi:se in
  let sum = Array.fold_left ( +. ) 0.0 in
  let stats = match !replay with Some s -> s | None -> failwith "churn: replayer never started" in
  let f = Float.of_int in
  let starts = Dist.values lk.start and stops = Dist.values lk.stop and hops = Dist.values lk.hops in
  let n = Array.length starts in
  let failed = ref 0 and hop_sum = ref 0.0 and ok_lat = Dist.create () in
  for i = 0 to n - 1 do
    if Buffer.nth lk.ok i = 'o' then begin
      hop_sum := !hop_sum +. hops.(i);
      Dist.add ok_lat (stops.(i) -. starts.(i))
    end
    else incr failed
  done;
  let lat = sorted_copy (Dist.values ok_lat) in
  let n_ok = n - !failed in
  let failed_frac = f !failed /. f (max 1 n) in
  let rpc_calls = env_calls () - !calls0 in
  let msgs = Net.messages_sent net - !msgs0 in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    (Printf.sprintf "init=%d lookups=%d failed=%d joins=%d leaves=%d fjoins=%d live_end=%d rpc=%d msgs=%d events=%d;"
       init_pop n !failed stats.Replayer.joins stats.Replayer.leaves stats.Replayer.failed_joins !live_end
       rpc_calls msgs st.Engine.events_fired);
  digest_floats buf starts;
  digest_floats buf stops;
  digest_floats buf hops;
  Buffer.add_buffer buf lk.ok;
  (match tr with
  | None -> ()
  | Some t ->
      for i = 0 to n - 1 do
        Spans.add t.sim ~tid:(i + 1)
          ~attrs:[ ("outcome", if Buffer.nth lk.ok i = 'o' then "ok" else "failed"); ("hops", Printf.sprintf "%.0f" hops.(i)) ]
          "pastry.lookup" ~start:starts.(i) ~stop:stops.(i)
      done);
  let run_s = sum run_wall and cpu_s = sum run_cpu in
  let layers =
    [
      ("sim.events", f (!ev1 - !ev0));
      ("sim.ns_per_event", run_s *. 1e9 /. f (max 1 (!ev1 - !ev0)));
      ("sim.max_queue_depth", f st.Engine.max_queue_depth);
      ("par.cpu_per_wall", cpu_s /. run_s);
      ("net.testbed_s", testbed_s);
      ("net.msgs", f msgs);
      ("net.bytes", f (Net.bytes_sent net - !bytes0));
      ("net.dropped", f (Net.messages_dropped net - !drop0));
      ("net.msgs_per_op", f msgs /. f (max 1 n));
      ("rpc.calls", f rpc_calls);
      ("rpc.calls_per_req", f rpc_calls /. f (max 1 n));
      ("pastry.hops_mean", !hop_sum /. f (max 1 n_ok));
      ("ctl.deploy_host_s", ws -. wd);
      ("ctl.deploy_sim_s", ss -. sd);
      ("churn.joins", f stats.Replayer.joins);
      ("churn.leaves", f stats.Replayer.leaves);
      ("churn.failed_joins", f stats.Replayer.failed_joins);
    ]
    @ pct_layers "pastry.lookup_" lat [ ("p50_s", 0.5); ("p99_s", 0.99) ]
    @ opt_layer "rpc.latency_p50_s" (Option.map fst (obs_quantile "rpc.latency" 0.5))
    @ opt_layer "rpc.latency_p99_s" (Option.map fst (obs_quantile "rpc.latency" 0.99))
    @ opt_layer "net.link_wait_p99_s" (Option.map fst (obs_quantile "net.link_wait" 0.99))
    @ obs_counters tr
  in
  {
    setup_s = ws -. t0;
    run_s;
    cpu_s;
    words_per_node = !words;
    ok_frac = 1.0 -. failed_frac;
    attempted = n;
    failed = !failed;
    digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    checks =
      [
        ( Printf.sprintf "failed_frac %.4f under Fig 11's %.2f bound (%d/%d lookups)" failed_frac fail_bound !failed n,
          n > 0 && failed_frac < fail_bound );
        ( "no crashed simulated process",
          Engine.crashed engine = [] );
      ];
    layers;
    slices = Some (run_wall, run_cpu);
    notes =
      [
        Printf.sprintf
          "churn: %d initial instances, trace x%.0f peak churn %.1f%%/min, %d joins %d leaves (%d failed joins), %d live at the end"
          init_pop speedup (100.0 *. Trace.churn_rate trace ~bin:60.0) stats.Replayer.joins stats.Replayer.leaves
          stats.Replayer.failed_joins !live_end;
        pct_note "successful lookup latency (sim s)" lat [ ("p50", 0.5); ("p99", 0.99) ];
        Printf.sprintf "lookups: %d attempted, %d failed, mean %.2f hops; run phase %d events, %d messages"
          n !failed (!hop_sum /. f (max 1 n_ok)) (!ev1 - !ev0) msgs;
      ];
  }
