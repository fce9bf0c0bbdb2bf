(* Serving fast path under open-loop load: where is the knee, and how far
   do the toggled optimizations move it?

   One simulated deployment per row: an assembled Pastry ring with the
   serving application layered on top (Dht_store by default, Webcache for
   the [_web_] rows), loaded by the open-loop generator in lib/serve —
   a million virtual clients at O(1) words each, Poisson arrivals with a
   diurnal wave, Zipf key popularity, latency measured from the intended
   arrival time (coordinated-omission-free), drained to the last request
   so the slow tail is never censored.

   The sweep crosses offered-load steps with the serving ablations:

   - base   : FIFO owner queue, no tricks
   - batch  : same-key gets coalesce into one service slot
   - p2c    : power-of-two-choices replica selection (EWMA estimator)
   - adm    : token-bucket + SLO-budget admission control at the owner
   - allon  : all three

   With serve_cost = 2 ms a single owner sustains 500 req/s, and Zipf
   s=1.0 over 1000 keys concentrates ~13% of gets on the hottest key, so
   the baseline knee sits near 4k req/s ring-wide: the rate steps
   [2k, 4k, 8k] probe below, at, and past it. The floors file pins the
   tentpole claim — all-on p99 must stay well under baseline p99 past
   the baseline knee (ceiling_ratio_p99_s) — plus absolute collapse
   floors and the bounded words-per-idle-client ceiling at a million
   clients. One row repeats the all-on step on the parallel single-run
   engine (4 partitions) so the baseline records windows/workers/cores
   for the degenerate-aware speedup annotation. *)

open Splay
module H = Splay_serve.Harness
module L = Splay_serve.Load

let serve_row ~name ?mode scenario ~seed ~rate =
  let t0 = Unix.gettimeofday () in
  let r = H.run ?mode scenario ~seed ~rate in
  let wall = Unix.gettimeofday () -. t0 in
  let f = Float.of_int in
  let base =
    [
      ("rate", rate);
      ("clients", f scenario.H.load.L.clients);
      ("ok", f r.H.ok);
      ("miss", f r.H.misses);
      ("shed", f r.H.shed);
      ("failed", f r.H.failed);
      ("p50_s", r.H.p50);
      ("p99_s", r.H.p99);
      ("p999_s", r.H.p999);
      ("mean_s", r.H.mean_lat);
      ("served", f r.H.served);
      ("server_shed", f r.H.server_shed);
      ("batched", f r.H.batched);
      ("client_words", r.H.client_words);
      ("workers", f r.H.workers);
      ("cores", f (Pool.default_jobs ()));
    ]
  in
  let web =
    match scenario.H.target with
    | H.Web -> [ ("origin", f r.H.origin); ("stale_served", f r.H.stale) ]
    | H.Dht -> []
  in
  let par =
    match mode with
    | Some (H.Fab { parts; domains }) ->
        [ ("parts", f parts); ("domains", f domains); ("windows", f r.H.windows) ]
    | _ -> []
  in
  ( {
      Scale.name;
      nodes = scenario.H.nodes;
      ops = r.H.offered;
      (* wall includes overlay assembly + preload: the floors are about
         collapse, not peak request throughput *)
      seconds = wall;
      resident_words = None;
      extras = base @ web @ par;
    },
    r )

let variants =
  [
    ("base", Fun.id);
    ("batch", fun s -> { s with H.batching = true });
    ("p2c", fun s -> { s with H.p2c = true });
    ("adm", fun s -> { s with H.admission = true });
    ("allon", H.all_on);
  ]

let scenario ~target ~nodes ~clients ~duration =
  {
    H.default with
    H.nodes;
    target;
    gateways = 64;
    serve_cost = 0.002;
    load =
      { L.default with L.clients; keys = 1_000; duration; inflight = 64 };
  }

let rate_tag rate = Printf.sprintf "r%.0f" rate

let run () =
  Report.section "Serve — open-loop serving fast path (offered-load sweep)";
  let seed = 42 in
  let clients = 1_000_000 in
  let duration = Common.pick ~quick:10.0 ~full:20.0 in
  let rates = [ 2_000.0; 4_000.0; 8_000.0 ] in
  let sizes = Common.pick ~quick:[ 10_000 ] ~full:[ 10_000; 100_000 ] in
  (* The 10k deployment sweeps the full ablation cross; the (full-only)
     100k deployment re-measures just the endpoints — baseline vs all-on
     — at and past the knee, since the knee is a hot-owner property and
     does not move with ring size. *)
  let steps =
    List.concat_map
      (fun nodes ->
        let vs, rs =
          if nodes <= 10_000 then (variants, rates)
          else
            ( List.filter (fun (v, _) -> v = "base" || v = "allon") variants,
              List.filter (fun r -> r >= 4_000.0) rates )
        in
        List.concat_map
          (fun (vname, vf) ->
            List.map
              (fun rate ->
                let name =
                  Printf.sprintf "serve_dht_%s_%s_%s" (Common.size_tag nodes)
                    vname (rate_tag rate)
                in
                let s = vf (scenario ~target:H.Dht ~nodes ~clients ~duration) in
                fun () -> serve_row ~name s ~seed ~rate)
              rs)
          vs)
      sizes
  in
  (* The web rows probe the coalescing win on its natural target: a
     cold cooperative cache where concurrent first-misses on a hot url
     either all reach the origin (base) or collapse into their leader's
     fetch (coal). *)
  let web_rate = 3_000.0 in
  let web_steps =
    List.map
      (fun (vname, batching) ->
        let name =
          Printf.sprintf "serve_web_10k_%s_%s" vname (rate_tag web_rate)
        in
        let s =
          { (scenario ~target:H.Web ~nodes:10_000 ~clients ~duration) with H.batching }
        in
        fun () -> serve_row ~name s ~seed ~rate:web_rate)
      [ ("base", false); ("coal", true) ]
  in
  let measured = Common.par_map (fun step -> step ()) (steps @ web_steps) in
  (* The parallel-engine row runs outside the trial pool: Fabric brings
     up its own worker domains and must not nest inside Pool's. *)
  let par_rate = 4_000.0 in
  let par_row, _ =
    serve_row
      ~name:(Printf.sprintf "serve_dht_10k_allon_par_%s" (rate_tag par_rate))
      ~mode:(H.Fab { parts = 4; domains = !Common.domains })
      (H.all_on (scenario ~target:H.Dht ~nodes:10_000 ~clients ~duration))
      ~seed ~rate:par_rate
  in
  let find nm =
    List.find_opt (fun (row, _) -> row.Scale.name = nm) measured
  in
  (* speedup vs the sequential all-on twin at the same offered rate —
     recorded for the floors script's workers-aware gate/annotation *)
  let par_row =
    match find (Printf.sprintf "serve_dht_10k_allon_%s" (rate_tag par_rate)) with
    | Some (seq_row, _) when Scale.ops_per_sec seq_row > 0.0 ->
        {
          par_row with
          Scale.extras =
            par_row.Scale.extras
            @ [ ("speedup_x", Scale.ops_per_sec par_row /. Scale.ops_per_sec seq_row) ];
        }
    | _ -> par_row
  in
  let rows = List.map fst measured @ [ par_row ] in
  Scale.print_rows rows;
  Scale.write_json !Common.bench_serve_out rows;
  Printf.printf "  wrote %d serving workloads to %s\n" (List.length rows)
    !Common.bench_serve_out;
  (* shape: the tentpole claims, eyeballable straight from the run *)
  (match (find "serve_dht_10k_base_r8000", find "serve_dht_10k_allon_r8000") with
  | Some (_, b), Some (_, a) ->
      Common.shape_check "all-on beats baseline p99 past the knee" (a.H.p99 < b.H.p99);
      Common.shape_check "baseline is past its knee (p99 over SLO budget)"
        (b.H.p99 > 0.05)
  | _ -> Common.shape_check "knee endpoints measured" false);
  (match find "serve_dht_10k_adm_r8000" with
  | Some (_, r) -> Common.shape_check "admission sheds under overload" (r.H.server_shed > 0)
  | None -> ());
  (match (find "serve_web_10k_base_r3000", find "serve_web_10k_coal_r3000") with
  | Some (_, b), Some (_, c) ->
      Common.shape_check "coalescing saves origin fetches" (c.H.origin < b.H.origin);
      Common.shape_check "no stale-beyond-TTL serves" (b.H.stale = 0 && c.H.stale = 0)
  | _ -> ());
  match find "serve_dht_10k_base_r2000" with
  | Some (_, r) ->
      Common.shape_check "a million clients at O(1) words each"
        (r.H.client_words < 8.0)
  | None -> ()
