(* live_chord: real splayd processes over loopback TCP. Two daemons run the
   warm-started 32-instance Chord ring; the ring's first instance drives
   5,000 sequential lookups (closed loop, one outstanding). The only
   workload on the Conn/Wire/Loop/Ctl path. Traffic crosses loopback only,
   never a real link.

   Times here are real: the daemons stamp their log records on a wall
   clock shared from the controller's epoch, so per-lookup latency is the
   gap between successive lookup records. *)

open Splay
open Common
module Live = Splay_live

let instances = 32
let daemons = 2
let lookups = 5_000
let m = 16
let chunk = 50

let params ~seed =
  [ ("m", string_of_int m); ("lookups", string_of_int lookups); ("seed", string_of_int seed) ]

(* The daemon binary is built next to this benchmark in the same tree. *)
let splayd () =
  let exe_dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.concat (Filename.dirname exe_dir) "bin") "splayd.exe"

let out_root = Filename.concat "_build" "perfbench"

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Deterministic half of the workload, computed once per invocation: the
   simulated twin's contract evidence and the words one instance of the
   same application holds in the simulator. *)
type twin = { sim : Live.Contract.summary option; twin_error : string option; words_per_node : float }

let twin ~seed =
  Live.Live_apps.init ();
  let app = "chord" and params = params ~seed in
  let sim, twin_error =
    match Live.Contract.run_sim ~seed ~until:1e6 ~n:instances ~app ~params () with
    | Ok reports -> (Some (Live.Contract.summary_of_reports reports), None)
    | Error e -> (None, Some e)
  in
  let base = Some (baseline_words ()) in
  let eng = Engine.create ~seed () in
  let net = Net.create eng (Testbed.synthetic ~hosts:instances (Engine.rng eng)) in
  let addrs = List.init instances (fun i -> Addr.make i 9000) in
  let main = Option.get (Live.Registry.find app) in
  let envs =
    List.mapi
      (fun i me ->
        let env = Env.create net ~me ~position:(i + 1) ~nodes:addrs in
        main ~params env;
        env)
      addrs
  in
  let words_per_node = words_per_node base instances in
  ignore (Sys.opaque_identity envs);
  { sim; twin_error; words_per_node }

(* Times of the lookup records in the merged controller log. *)
let lookup_times path =
  let ic = open_in path in
  let ts = Dist.create () in
  (try
     while true do
       let kv = Trace_analysis.parse_line (input_line ic) in
       match (Trace_analysis.field kv "msg", Trace_analysis.float_field kv "t") with
       | Some msg, Some t when String.length msg >= 13 && String.sub msg 0 13 = "REPORT lookup" ->
           Dist.add ts t
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  Dist.values ts

let host_of addr = match String.index_opt addr ':' with Some i -> String.sub addr 0 i | None -> addr

let out_dir index = Filename.concat out_root (Printf.sprintf "live-%d" index)

(* Run directories of earlier invocations are removed first. *)
let clean () =
  if Sys.file_exists out_root then
    Array.iter
      (fun f -> if String.length f > 5 && String.sub f 0 5 = "live-" then rm_rf (Filename.concat out_root f))
      (Sys.readdir out_root)

(* Only the latest repetition's run directory is kept. *)
let rep ~twin ~seed ~index tr =
  rm_rf (out_dir (index - 1));
  let out_dir = out_dir index in
  rm_rf out_dir;
  mkdir_p out_dir;
  let cfg =
    {
      Live.Ctl.default_cfg with
      Live.Ctl.c_app = "chord";
      c_params = params ~seed;
      c_daemons = daemons;
      c_desc = { Descriptor.default with Descriptor.bootstrap = Descriptor.All; nb_splayd = instances };
      c_out_dir = out_dir;
      c_splayd = splayd ();
      c_trace = tr <> None;
      c_metrics = false;
      c_duration = 0.0;
      c_deadline = 120.0;
      c_seed = seed;
    }
  in
  let c0 = cpu () +. cpu_children () in
  let t0 = wall () in
  let o = Spans.wrap (Option.map (fun t -> t.host) tr) "live.ctl_run" (fun _ -> Live.Ctl.run cfg) in
  let total = wall () -. t0 in
  let cpu_s = cpu () +. cpu_children () -. c0 in
  let times = lookup_times (Filename.concat out_dir "logs.jsonl") in
  let n = Array.length times in
  let run_s = if n >= 2 then times.(n - 1) -. times.(0) else nan in
  let lat = sorted_copy (Array.init (max 0 (n - 1)) (fun i -> times.(i + 1) -. times.(i))) in
  let live = Live.Contract.summary_of_reports o.Live.Ctl.r_reports in
  let violations =
    match (twin.sim, twin.twin_error) with
    | Some sim, _ -> Live.Contract.diff ~sim ~live ()
    | None, e -> [ "simulated twin failed: " ^ Option.value e ~default:"?" ]
  in
  let _, ds = Live.Ctl.status out_dir in
  let survivors = List.length (List.filter (fun (_, _, alive, _) -> alive) ds) in
  let issued, resolved = Option.value live.Live.Contract.done_ok ~default:(0, 0) in
  let rpc_layers =
    match (tr, o.Live.Ctl.r_trace_file) with
    | Some _, Some path ->
        let calls = List.filter (fun sp -> sp.Trace_analysis.name = "rpc.call") (Trace_analysis.load_file path).Trace_analysis.spans in
        let d = sorted_copy (Array.of_list (List.map Trace_analysis.duration calls)) in
        let cross =
          List.length
            (List.filter
               (fun sp ->
                 match (Trace_analysis.attr sp "src", Trace_analysis.attr sp "dst") with
                 | Some s, Some d -> host_of s <> host_of d
                 | _ -> false)
               calls)
        in
        opt_layer "live.rpc_p50_s" (percentile d 0.5)
        @ [ ("live.rpc_calls_traced", Float.of_int (Array.length d));
            ("live.cross_frac", Float.of_int cross /. Float.of_int (max 1 (Array.length d))) ]
    | _ -> []
  in
  let f = Float.of_int in
  {
    setup_s = total -. run_s;
    run_s;
    cpu_s;
    words_per_node = twin.words_per_node;
    ok_frac = f resolved /. f (max 1 issued);
    attempted = issued;
    failed = issued - resolved;
    digest = Printf.sprintf "lookups=%d records=%d violations=%d" issued n (List.length violations);
    checks =
      [
        (String.concat "; " ("live run ok" :: o.Live.Ctl.r_failures), o.Live.Ctl.r_ok);
        (Printf.sprintf "%d lookup records of %d" n lookups, n = lookups && issued = lookups);
        ( Printf.sprintf "zero Contract.diff violations against the simulated twin (%d%s)"
            (List.length violations)
            (match violations with v :: _ -> ": " ^ v | [] -> ""),
          violations = [] );
        (Printf.sprintf "no surviving splayd (%d alive)" survivors, survivors = 0);
      ];
    layers =
      [
        ("live.deploy_s", if n > 0 then times.(0) else nan);
        ("live.fork_reap_s", total -. run_s -. (if n > 0 then times.(0) else nan));
        ("rpc.calls", f (Option.value live.Live.Contract.calls ~default:0));
        ("rpc.calls_per_req", f (Option.value live.Live.Contract.calls ~default:0) /. f (max 1 issued));
      ]
      (* a daemon's clock advances once per event-loop turn, so lookups
         answered within one turn are 0 apart: the mean is exact, the
         median is not, the tail is turns that waited on I/O *)
      @ [ ("live.lookup_mean_s", run_s /. f (max 1 (n - 1))) ]
      @ pct_layers "live.lookup_" lat [ ("p99_s", 0.99) ]
      @ rpc_layers;
    (* the lookup sequence is identical in every repetition: chunks of
       [chunk] successive lookups are its slices *)
    slices =
      Some
        ( Array.init ((n - 1 + chunk - 1) / chunk) (fun k ->
              times.(min (n - 1) ((k + 1) * chunk)) -. times.(k * chunk)),
          [||] );
    notes =
      [
        Printf.sprintf "live lookups: mean %.6f s over %d gaps between successive records (real)"
          (run_s /. f (max 1 (n - 1))) (n - 1);
        pct_note "gap between successive lookup records (real s)" lat [ ("p50", 0.5); ("p99", 0.99) ];
      ];
  }
