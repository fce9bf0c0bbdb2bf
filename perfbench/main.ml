(* The repository's benchmark: one entry point for four workloads over the
   simulator and the live backend.

     main.exe --workload flood|serve_dht|churn|live_chord --seed N
              --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with every recording plane
   off: after a warm-up, the workload is set up and run again and again,
   each time from the same seed, until S seconds have passed (at least
   three times). Set-up time is their median; run and CPU time come from
   the fastest repetition of each slice of the measured phase, scaled by a
   machine-speed probe (see Common.probe). --trace 1 alternates untraced
   and traced repetitions and reports the per-layer metrics; the traced
   ones record
   host-clock spans around the benchmark's calls into each layer, sim-clock
   spans per request or lookup, and the Obs metrics plane (the live
   workload: the merged live trace). Span files land in _build/perfbench/.

   Every repetition checks the workload's outputs; simulated outputs are
   folded into a digest that must be identical across repetitions, traced
   or not. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

open Splay
open Common

let end_to_end =
  [
    ("setup_s", "s", "host, scaled (live_chord: real): start until the measured phase begins (median)");
    ("run_s", "s", "host, scaled (live_chord: real): the measured phase, fastest repetition of each slice");
    ("cpu_s", "s", "host CPU, scaled, of those slices, all domains (live_chord: Ctl.run + reaped splayd)");
    ("peak_heap_mb", "MiB", "GC top heap of the process over the run");
    ("words_per_node", "words", "live heap words after setup / nodes (live_chord: simulated twin)");
    ("ok_frac", "ratio", "operations that succeeded / attempted (1 - failed_frac)");
  ]

(* Every per-layer metric, in report order. A workload that never calls a
   layer reads 0 there (the time or count it spent in it); a sample
   statistic it could not measure reads 0 and is listed as not measured. *)
let per_layer =
  [
    ("sim.events", "count"); ("sim.ns_per_event", "ns"); ("sim.max_queue_depth", "count");
    ("sim.spawns", "count"); ("par.windows", "count"); ("par.workers", "count");
    ("par.speedup_x", "x"); ("par.cpu_per_wall", "ratio"); ("net.testbed_s", "s");
    ("net.msgs", "count"); ("net.bytes", "B"); ("net.dropped", "count"); ("net.msgs_per_op", "count");
    ("net.link_wait_p99_s", "s"); ("rpc.calls", "count"); ("rpc.calls_per_req", "count");
    ("rpc.timeouts", "count"); ("rpc.retries", "count"); ("rpc.latency_p50_s", "s");
    ("rpc.latency_p99_s", "s"); ("epidemic.install_s", "s"); ("pastry.assemble_s", "s");
    ("pastry.hops_mean", "count"); ("pastry.lookup_p50_s", "s"); ("pastry.lookup_p99_s", "s");
    ("dht.preload_s", "s"); ("dht.service_p50_s", "s"); ("dht.service_p99_s", "s");
    ("dht.served", "count"); ("dht.batched", "count"); ("dht.shed", "count");
    ("load.offered", "count"); ("load.latency_p50_s", "s"); ("load.latency_p99_s", "s");
    ("load.latency_p999_s", "s"); ("load.goodput_rps", "1/s"); ("load.words_per_client", "words");
    ("load.gateway_wait_p99_s", "s"); ("ctl.deploy_host_s", "s"); ("ctl.deploy_sim_s", "s");
    ("ctl.heartbeats", "count"); ("ctl.registers", "count"); ("churn.joins", "count");
    ("churn.leaves", "count"); ("churn.failed_joins", "count"); ("live.deploy_s", "s");
    ("live.fork_reap_s", "s"); ("live.lookup_mean_s", "s"); ("live.lookup_p99_s", "s");
    ("live.rpc_p50_s", "s"); ("live.rpc_calls_traced", "count"); ("live.cross_frac", "ratio");
    ("obs.traced_overhead_x", "x"); ("obs.spans", "count"); ("obs.probe_s", "s");
  ]

let usage =
  "usage: main.exe --workload flood|serve_dht|churn|live_chord --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let int_of name v = match int_of_string_opt v with Some n -> n | None -> die (name ^ " expects an integer") in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_of "--seed" v); go rest
    | "--seconds" :: v :: rest -> seconds := Some (int_of "--seconds" v); go rest
    | "--trace" :: v :: rest -> trace := Some (int_of "--trace" v); go rest
    | [] -> ()
    | a :: _ -> die ("unknown argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some (0 | 1 as trace) when seconds > 0 -> (!workload, seed, seconds, trace = 1)
  | _ -> die "missing or invalid argument"

(* run_s and cpu_s of a set of repetitions of identical work. When the
   measured phase was sliced (every repetition then has the same slices):
   the fastest repetition of each slice, with the CPU of that repetition's
   slice (live_chord times slices but not their CPU: the median
   repetition's CPU). Otherwise the fastest repetition. *)
let fastest reps =
  let sliced = List.filter_map (fun r -> r.slices) reps in
  match sliced with
  | (w0, _) :: _
    when List.length sliced = List.length reps
         && List.for_all (fun (w, _) -> Array.length w = Array.length w0) sliced ->
      let run = ref 0.0 and cpu = ref 0.0 in
      Array.iteri
        (fun k _ ->
          let w, c =
            List.fold_left
              (fun (bw, bc) (w, c) ->
                if w.(k) < bw then (w.(k), if Array.length c > k then c.(k) else nan) else (bw, bc))
              (infinity, nan) sliced
          in
          run := !run +. w;
          cpu := !cpu +. c)
        w0;
      (!run, if Float.is_nan !cpu then median (List.map (fun r -> r.cpu_s) reps) else !cpu)
  | _ ->
      List.fold_left
        (fun (bw, bc) r -> if r.run_s < bw then (r.run_s, r.cpu_s) else (bw, bc))
        (infinity, nan) reps

let json_num x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

let () =
  let workload, seed, seconds, traced = args () in
  if not (List.mem workload [ "flood"; "serve_dht"; "churn"; "live_chord" ]) then
    die ("unknown workload " ^ workload);
  let twin =
    if workload = "live_chord" then begin
      Live_chord.clean ();
      Some (Live_chord.twin ~seed)
    end
    else None
  in
  let live_index = ref 0 in
  let probes = ref [] and last_probe = ref neg_infinity in
  let run_rep ?domains tr =
    (* every repetition starts from a compacted heap, as the first one
       does, so none inherits a heap grown by its predecessors; the trace
       clock would keep the previous repetition's engine alive *)
    Obs.set_clock (fun () -> 0.0);
    Gc.compact ();
    (* two probes at most once a second, spread over the run like the
       repetitions they scale *)
    if workload <> "live_chord" && wall () -. !last_probe >= 1.0 then begin
      probes := probe () :: probe () :: !probes;
      last_probe := wall ()
    end;
    match (workload, twin) with
    | "flood", _ -> Flood.rep ?domains ~seed tr
    | "serve_dht", _ -> Serve_dht.rep ~seed tr
    | "churn", _ -> Churn.rep ~seed tr
    | _, Some twin ->
        incr live_index;
        Live_chord.rep ~twin ~seed ~index:!live_index tr
    | _, None -> assert false
  in
  (* a warm-up repetition first: its outputs are checked like every other
     one, but its timings are not reported. The first repetition in a
     process pays page faults and code warm-up the later ones do not, and
     it alone measures live words, whose full collections would shift GC
     work out of its timed phases. *)
  let warmup = run_rep None in
  words_enabled := false;
  let start = wall () in
  let elapsed () = wall () -. start in
  let plain = ref [] and traced_reps = ref [] and last_tracing = ref None in
  let max_reps = 60 in
  if not traced then begin
    let rec loop i =
      plain := run_rep None :: !plain;
      if i < max_reps && (i < 3 || elapsed () < Float.of_int seconds) then loop (i + 1)
    in
    loop 1
  end
  else begin
    let rec loop i =
      plain := run_rep None :: !plain;
      let t = { host = Spans.create ~origin:start (); sim = Spans.create () } in
      traced_reps := run_rep (Some t) :: !traced_reps;
      last_tracing := Some t;
      if i < max_reps && elapsed () < Float.of_int seconds then loop (i + 1)
    in
    loop 1
  end;
  let plain = List.rev !plain and traced_reps = List.rev !traced_reps in
  let all = (warmup :: plain) @ traced_reps in
  (* par.speedup_x: identical work — parts=2 on one worker domain against
     parts=2 on two *)
  let speedup =
    if traced && workload = "flood" then begin
      let one = run_rep ~domains:1 None in
      [ ("par.speedup_x", one.run_s /. fst (fastest plain)) ]
    end
    else []
  in
  (* Host times are scaled to the reference host's speed. live_chord's
     times are real: loopback and scheduling latency, which the probe does
     not track, so they are reported as measured. *)
  let fastest_probe = List.fold_left Float.min infinity !probes in
  let speed = if !probes = [] then 1.0 else probe_ref /. fastest_probe in
  if !probes <> [] then
    Printf.printf "machine probe: fastest %.6f s of %d, reference %.3f s: host times scaled by %.4f\n"
      fastest_probe (List.length !probes) probe_ref speed;
  let nproc = Pool.default_jobs () in
  Printf.printf "perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d workers=%d repetitions=%d+%d\n"
    workload seed seconds (Bool.to_int traced) nproc (Dpool.effective 2) (List.length plain)
    (List.length traced_reps);
  let first = List.hd all in
  let digests = List.sort_uniq compare (List.map (fun r -> r.digest) all) in
  let deterministic = List.length digests = 1 in
  if workload <> "live_chord" then
    Printf.printf "digest %s seed=%d: %s\n" workload seed (Digest.to_hex (Digest.string first.digest));
  List.iter print_endline first.notes;
  let failed_checks =
    List.concat_map (fun r -> List.filter (fun (_, ok) -> not ok) r.checks) all
    |> List.sort_uniq compare
  in
  List.iter (fun (c, _) -> Printf.printf "check OK   %s\n" c) first.checks;
  List.iter (fun (c, _) -> Printf.printf "check FAIL %s\n" c) failed_checks;
  if not deterministic then
    Printf.printf "check FAIL deterministic outputs identical across repetitions (%d digests)\n"
      (List.length digests)
  else Printf.printf "check OK   deterministic outputs identical across %d repetitions\n" (List.length all);
  let med f l = median (List.map f l) in
  let metrics =
    if not traced then begin
      List.iteri
        (fun i r -> Printf.printf "rep %d: setup_s=%.4f run_s=%.4f cpu_s=%.4f\n" i r.setup_s r.run_s r.cpu_s)
        (warmup :: plain);
      let run_s, cpu_s = fastest plain in
      let setup_s = med (fun r -> r.setup_s) plain in
      Printf.printf "unscaled: setup_s=%.6f run_s=%.6f cpu_s=%.6f\n" setup_s run_s cpu_s;
      let v = function
        | "setup_s" -> setup_s *. speed
        | "run_s" -> run_s *. speed
        | "cpu_s" -> cpu_s *. speed
        | "peak_heap_mb" -> peak_heap_mb ()
        | "words_per_node" -> warmup.words_per_node
        | "ok_frac" -> med (fun r -> r.ok_frac) plain
        | m -> failwith m
      in
      List.map
        (fun (name, unit, what) ->
          let x = v name in
          Printf.printf "metric %-16s %14.6f %-6s %s\n" name x unit what;
          (name, unit, x))
        end_to_end
    end
    else begin
      let layer_value name =
        let from reps = List.filter_map (fun r -> List.assoc_opt name r.layers) reps in
        (* untraced figures where they exist (host times without the
           recording overhead; counts are the same), else the traced ones *)
        match (from plain, from traced_reps) with
        | (_ :: _ as l), _ | [], (_ :: _ as l) -> Some (median l)
        | [], [] -> None
      in
      let overhead = fst (fastest traced_reps) /. fst (fastest plain) in
      let spans = match !last_tracing with Some t -> Spans.count t.host + Spans.count t.sim | None -> 0 in
      let extra =
        [ ("obs.traced_overhead_x", overhead); ("obs.spans", Float.of_int spans) ]
        @ (if !probes = [] then [] else [ ("obs.probe_s", fastest_probe) ])
        @ speedup
      in
      List.map
        (fun (name, unit) ->
          let x = match List.assoc_opt name extra with Some x -> Some x | None -> layer_value name in
          (match x with
          | Some x -> Printf.printf "layer  %-24s %16.6f %s\n" name x unit
          | None -> Printf.printf "layer  %-24s %16s %s (not measured on %s)\n" name "-" unit workload);
          (name, unit, Option.value x ~default:0.0))
        per_layer
    end
  in
  (* span files, one per clock, loadable by `splay trace` *)
  let span_ok =
    match !last_tracing with
    | None -> true
    | Some t ->
        let dir = Live_chord.out_root in
        Live_chord.mkdir_p dir;
        let write clock sp =
          if Spans.count sp = 0 then true
          else begin
            let path = Filename.concat dir (Printf.sprintf "%s-%d.%s.jsonl" workload seed clock) in
            Spans.write sp path;
            let loaded = List.length (Trace_analysis.load_file path).Trace_analysis.spans in
            Printf.printf "spans %s clock: %s (%d spans)\n" clock path loaded;
            loaded = Spans.count sp
          end
        in
        List.iter
          (fun (name, total, self, n) ->
            Printf.printf "self   %-24s total=%.4f s self=%.4f s n=%d\n" name total self n)
          (Spans.self_times t.host);
        let ok_host = write "host" t.host and ok_sim = write "sim" t.sim in
        (if workload = "live_chord" then
           Printf.printf "spans real clock: %s\n"
             (Filename.concat (Live_chord.out_dir !live_index) "trace.jsonl"));
        ok_host && ok_sim
  in
  if not span_ok then print_endline "check FAIL span files reload with every span";
  let finite = List.for_all (fun (_, _, x) -> Float.is_finite x) metrics in
  if not finite then print_endline "check FAIL every metric is a finite number";
  let correct = failed_checks = [] && deterministic && span_ok && finite in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 all in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 all in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, x) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (if Float.is_finite x then json_num x else "0")
              unit)
          metrics));
  exit (if correct then 0 else 1)
