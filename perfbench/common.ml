(* Shared plumbing of the benchmark: the clocks, exact percentiles,
   the span recorder and the per-repetition result every workload returns.

   Clocks. Host time is what the simulator takes to run (wall clock of this
   process, [Unix.gettimeofday]); host CPU is [Unix.times] over every domain
   of the process (plus reaped children where a workload forks); sim time
   is the engine's virtual clock — what the modelled system would take;
   real time is the live backend's wall clock, as stamped by the daemons. *)

open Splay

let wall () = Unix.gettimeofday ()

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU of reaped child processes (the live backend's splayd daemons). *)
let cpu_children () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Live words before a repetition builds anything. The trace clock holds
   the most recently created engine — and through it a previous run's
   whole deployment — until the next engine replaces it, so it is
   detached first. *)
let baseline_words () =
  Obs.set_clock (fun () -> 0.0);
  live_words ()

(* Live words are deterministic for a seed and each measurement costs two
   full major collections, so only the first repetition of a run measures
   them; later ones report nan. *)
let words_enabled = ref true

let words_base () = if !words_enabled then Some (baseline_words ()) else None

(* Live words added since [base], per node. *)
let words_per_node base nodes =
  match base with
  | Some w0 -> Float.of_int (live_words () - w0) /. Float.of_int nodes
  | None -> nan

let peak_heap_mb () =
  Float.of_int (Gc.quick_stat ()).Gc.top_heap_words *. Float.of_int (Sys.word_size / 8)
  /. 1048576.0

(* Machine-speed probe: fixed work independent of the code under test —
   small allocations, hashing and random reads over a 32 MiB array, the
   mix an event-driven simulator runs. Its time tracks how fast the host
   currently runs such code: on a shared host the same work was seen to
   take up to 2x longer for seconds at a time, and its fastest time to
   drift by a third over minutes. *)
let probe_array =
  (* off the OCaml heap, so that peak_heap_mb stays the workload's *)
  lazy
    (let n = 1 lsl 22 in
     let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       a.{i} <- (i * 2654435761) land (n - 1)
     done;
     a)

let probe () =
  let a = Lazy.force probe_array in
  let mask = Bigarray.Array1.dim a - 1 in
  let h = Hashtbl.create 4096 in
  let t0 = wall () in
  let j = ref 0 and acc = ref 0 in
  for i = 1 to 400_000 do
    j := a.{(!j + i) land mask};
    let l = [ !j; i ] in
    Hashtbl.replace h (!j land 4095) l;
    acc := !acc + List.length l
  done;
  ignore (Sys.opaque_identity !acc);
  wall () -. t0

(* The probe's fastest time on the reference host (2-core x86-64 VM,
   OCaml 5.1). End-to-end times are reported at that host's speed: raw
   seconds x probe_ref / the fastest probe of the run. *)
let probe_ref = 0.075

(* ---------- exact percentiles ---------- *)

(* Nearest-rank percentile of every sample. [None] unless at least 10
   samples lie beyond the percentile: a tail figure resting on fewer is
   not reported. *)
let percentile (sorted : float array) q =
  let n = Array.length sorted in
  if n = 0 || Float.of_int n *. (1.0 -. q) < 10.0 then None
  else
    let rank = int_of_float (Float.ceil (q *. Float.of_int n)) in
    Some sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_copy a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median l =
  match List.sort Float.compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---------- sliced measured phases ---------- *)

(* Drive an engine to completion in slices of [dt] sim seconds on a fixed
   grid from the phase's start, recording each slice's host wall and CPU
   time. [Engine.run_to] executes exactly the events an unsliced run would,
   in the same order, so repetitions from one seed produce identical
   slices: the fastest repetition of each slice can be taken, and a few
   seconds of machine noise that slowed one repetition drop out. *)
type slices = { s_wall : float array; s_cpu : float array; s_upto : float array }

let run_sliced ?(horizon = infinity) eng ~dt =
  let w = Dist.create () and c = Dist.create () and u = Dist.create () in
  let start = Engine.now eng in
  let rec go () =
    let next = Engine.next_at eng in
    if next < horizon then begin
      let stop = start +. ((Float.floor ((next -. start) /. dt) +. 1.0) *. dt) in
      let stop = Float.min horizon (if stop <= next then stop +. dt else stop) in
      let w0 = wall () and c0 = cpu () in
      Engine.run_to eng ~stop;
      Dist.add w (wall () -. w0);
      Dist.add c (cpu () -. c0);
      Dist.add u stop;
      go ()
    end
  in
  go ();
  let st = if horizon < infinity then Engine.run ~until:horizon eng else Engine.run eng in
  (st, { s_wall = Dist.values w; s_cpu = Dist.values c; s_upto = Dist.values u })

(* The slices overlapping the sim interval (lo, hi], as (wall, cpu). *)
let slices_between s ~lo ~hi =
  let keep i =
    let prev = if i = 0 then neg_infinity else s.s_upto.(i - 1) in
    s.s_upto.(i) > lo && prev < hi
  in
  let idx = List.filter keep (List.init (Array.length s.s_upto) Fun.id) in
  let pick a = Array.of_list (List.map (fun i -> a.(i)) idx) in
  (pick s.s_wall, pick s.s_cpu)

(* ---------- spans ---------- *)

(* An in-memory span recorder, one per clock. Spans are kept until the end
   of the run and written in the JSONL schema [splay trace] reads
   (B/E records with sid/tid/pid), so a layer's self time is its span's
   duration minus the part its child spans cover. *)
module Spans = struct
  type span = {
    sid : int;
    tid : int;
    pid : int;
    name : string;
    start : float;
    mutable stop : float;
    attrs : (string * string) list;
  }

  type t = { mutable spans : span list; mutable next : int; origin : float }

  let create ?(origin = 0.0) () = { spans = []; next = 1; origin }

  (* Open a span at [at] (already on this recorder's clock). A root span
     starts a new trace unless [tid] names one; a child inherits its
     parent's trace. *)
  let open_ t ?parent ?tid ?(attrs = []) name ~at =
    let sid = t.next in
    t.next <- sid + 1;
    let pid, tid =
      match parent with
      | Some p -> (p.sid, p.tid)
      | None -> (0, Option.value tid ~default:sid)
    in
    let sp = { sid; tid; pid; name; start = at -. t.origin; stop = nan; attrs } in
    t.spans <- sp :: t.spans;
    sp

  let close t sp ~at = sp.stop <- at -. t.origin

  let add t ?parent ?tid ?attrs name ~start ~stop =
    close t (open_ t ?parent ?tid ?attrs name ~at:start) ~at:stop

  (* Host-clock convenience: time [f] as a span. *)
  let wrap t ?parent name f =
    match t with
    | None -> f None
    | Some t ->
        let sp = open_ t ?parent name ~at:(wall ()) in
        Fun.protect ~finally:(fun () -> close t sp ~at:(wall ())) (fun () -> f (Some sp))

  let count t = List.length t.spans

  let write t path =
    let recs =
      List.concat_map
        (fun sp ->
          let b =
            Printf.sprintf {|{"t":%.6f,"ev":"B","sid":%d,"tid":%d,"pid":%d,"name":%s%s}|}
              sp.start sp.sid sp.tid sp.pid (Obs.json_string sp.name)
              (String.concat ""
                 (List.map
                    (fun (k, v) -> Printf.sprintf ",%s:%s" (Obs.json_string k) (Obs.json_string v))
                    sp.attrs))
          in
          let e = Printf.sprintf {|{"t":%.6f,"ev":"E","sid":%d}|} sp.stop sp.sid in
          [ (sp.start, 0, sp.sid, b); (sp.stop, 1, sp.sid, e) ])
        t.spans
    in
    let recs = List.sort compare recs in
    let oc = open_out path in
    List.iter (fun (_, _, _, line) -> output_string oc line; output_char oc '\n') recs;
    close_out oc

  (* Per-name (total, self, count): self is duration minus the union of the
     direct children's intervals. *)
  let self_times t =
    let kids = Hashtbl.create 64 in
    List.iter (fun sp -> if sp.pid <> 0 then Hashtbl.add kids sp.pid sp) t.spans;
    let covered sp =
      let iv =
        List.sort compare
          (List.map
             (fun c -> (Float.max sp.start c.start, Float.min sp.stop c.stop))
             (Hashtbl.find_all kids sp.sid))
      in
      let rec go acc cur = function
        | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. Float.max 0.0 (b -. a))
        | (a, b) :: rest -> (
            match cur with
            | None -> go acc (Some (a, b)) rest
            | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
            | Some (ca, cb) -> go (acc +. Float.max 0.0 (cb -. ca)) (Some (a, b)) rest)
      in
      go 0.0 None iv
    in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun sp ->
        let d = sp.stop -. sp.start in
        let tot, self, n = Option.value (Hashtbl.find_opt tbl sp.name) ~default:(0.0, 0.0, 0) in
        Hashtbl.replace tbl sp.name (tot +. d, self +. (d -. covered sp), n + 1))
      t.spans;
    List.sort compare (Hashtbl.fold (fun k (a, b, c) acc -> (k, a, b, c) :: acc) tbl [])
end

(* ---------- one repetition ---------- *)

(* Recording sources of a traced repetition: host-clock spans around the
   benchmark's calls into each layer, sim-clock spans per request/lookup,
   and the Obs metrics plane (armed by {!with_metrics_plane}). *)
type tracing = { host : Spans.t; sim : Spans.t }

type rep = {
  setup_s : float;  (** host: start until the measured phase begins *)
  run_s : float;  (** host (live: real): the measured phase *)
  cpu_s : float;  (** host CPU over the measured phase *)
  words_per_node : float;  (** live heap words after setup / nodes *)
  ok_frac : float;  (** succeeded / attempted *)
  attempted : int;
  failed : int;
  digest : string;  (** canonical text of the deterministic outputs *)
  checks : (string * bool) list;  (** output checks; any false fails the run *)
  layers : (string * float) list;  (** per-layer figures of this repetition *)
  slices : (float array * float array) option;
      (** per-slice (wall, cpu) of the measured phase, when it was sliced *)
  notes : string list;  (** human-readable lines (sample counts, percentiles) *)
}

let with_metrics_plane on f =
  if not on then f ()
  else begin
    Obs.reset ();
    Obs.Rollup.clear ();
    Obs.metrics_enabled := true;
    Fun.protect ~finally:(fun () -> Obs.metrics_enabled := false) f
  end

let counter name = Float.of_int (Obs.counter_value (Obs.counter name))

(* Whole-run quantile of an Obs histogram (metrics plane, log-linear
   buckets), reported only with at least 10 samples beyond it. *)
let obs_quantile name q =
  let h = Obs.histogram name in
  let n = Obs.Rollup.count h in
  if n = 0 || Float.of_int n *. (1.0 -. q) < 10.0 then None else Some (Obs.Rollup.quantile h q, n)

let opt_layer name = function Some v -> [ (name, v) ] | None -> []

(* Obs counters every simulated workload reads in its traced repetition,
   where the metrics plane counts them (0 included: the layer did not
   run). Untraced repetitions recorded nothing and report none. *)
let obs_counters tr =
  match tr with
  | None -> []
  | Some _ ->
      [
        ("sim.spawns", counter "engine.spawns");
        ("rpc.timeouts", counter "rpc.timeouts");
        ("rpc.retries", counter "rpc.retries");
        ("ctl.heartbeats", counter "ctl.heartbeats");
        ("ctl.registers", counter "ctl.registers_sent");
      ]

(* "p50=0.123456 (n=43102)" — every percentile printed with its sample count. *)
let pct_note label sorted qs =
  let n = Array.length sorted in
  label ^ ": "
  ^ String.concat " "
      (List.map
         (fun (tag, q) ->
           match percentile sorted q with
           | Some v -> Printf.sprintf "%s=%.6f" tag v
           | None -> Printf.sprintf "%s=n/a" tag)
         qs)
  ^ Printf.sprintf " (n=%d)" n

let pct_layers prefix sorted qs =
  List.concat_map (fun (tag, q) -> opt_layer (prefix ^ tag) (percentile sorted q)) qs

(* Exact sorted samples rendered into the digest: every sample, so any
   change of a simulated statistic changes the digest. *)
let digest_floats buf a = Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf "%h;" x)) a
