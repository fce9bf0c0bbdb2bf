(* Tests for the simulation-testing layer: schedule perturbation, the
   nemesis DSL, invariant registries, and the sweep runner. *)

module Engine = Splay_sim.Engine
module Rng = Splay_sim.Rng
module Nemesis = Splay_check.Nemesis
module Invariant = Splay_check.Invariant
module Suite = Splay_check.Suite
module Runner = Splay_check.Runner

(* {2 Schedule perturbation} *)

(* Ten procs wake at the same instant; the firing order is the engine's
   tie-break. *)
let tie_order ~seed ~perturb =
  let e = Engine.create ~seed () in
  if perturb then Engine.set_perturbation ~tie_shuffle:true e;
  let log = ref [] in
  for i = 0 to 9 do
    ignore
      (Engine.spawn e (fun () ->
           Engine.sleep 1.0;
           log := i :: !log))
  done;
  ignore (Engine.run e);
  List.rev !log

let test_perturb_off_is_fifo () =
  Alcotest.(check (list int)) "fifo" (List.init 10 Fun.id) (tie_order ~seed:5 ~perturb:false)

let test_perturb_changes_order () =
  Alcotest.(check bool)
    "shuffled" true
    (tie_order ~seed:5 ~perturb:true <> List.init 10 Fun.id)

let test_perturb_deterministic () =
  Alcotest.(check (list int))
    "same seed, same schedule"
    (tie_order ~seed:5 ~perturb:true)
    (tie_order ~seed:5 ~perturb:true);
  Alcotest.(check bool)
    "different seed, different schedule" true
    (tie_order ~seed:5 ~perturb:true <> tie_order ~seed:6 ~perturb:true)

(* {2 Nemesis DSL} *)

let test_nemesis_roundtrip () =
  let cases =
    [
      "crash 2 @ 30";
      "stop 1 @ 12.5";
      "restart 1 @ 90";
      "join 3 @ 60";
      "partition 2 @ 40 to 90";
      "drop 0.3 @ 40 to 90";
      "slow 0.5 @ 10 to 20";
      "squeeze 2 x 4096 @ 50";
      "crash 1 @ 5; join 1 @ 60; slow 0.25 @ 40 to 70";
    ]
  in
  List.iter
    (fun s -> Alcotest.(check string) s s (Nemesis.to_string (Nemesis.parse s)))
    cases

let test_nemesis_churn_roundtrip () =
  let s = "crash 1 @ 5; churn{at 10s leave 25%} @ 30" in
  let t = Nemesis.parse s in
  (* parse . to_string is a fixpoint even when a churn script rides along *)
  Alcotest.(check string) "fixpoint" (Nemesis.to_string t)
    (Nemesis.to_string (Nemesis.parse (Nemesis.to_string t)))

let test_nemesis_parse_errors () =
  let bad = [ "crash"; "crash two @ 5"; "frobnicate 1 @ 2" ] in
  List.iter
    (fun s ->
      match try Ok (Nemesis.parse s) with e -> Error e with
      | Ok _ -> Alcotest.failf "%S parsed" s
      | Error (Nemesis.Parse_error _) -> ()
      | Error e -> Alcotest.failf "%S raised %s, not Parse_error" s (Printexc.to_string e))
    bad

let test_nemesis_duration () =
  let t = Nemesis.parse "crash 1 @ 5; drop 0.3 @ 40 to 90" in
  Alcotest.(check (float 1e-9)) "heal included" 90.0 (Nemesis.duration t)

let test_nemesis_shrink () =
  let t = Nemesis.parse "crash 2 @ 5; drop 0.4 @ 40 to 90" in
  let cands = Nemesis.shrink_candidates t in
  Alcotest.(check bool) "has candidates" true (cands <> []);
  (* removals come first: dropping either op is offered before weakenings *)
  Alcotest.(check bool) "first removes an op" true (List.length (List.hd cands) = 1);
  List.iter
    (fun c ->
      let smaller =
        List.length c < List.length t
        || Nemesis.duration c < Nemesis.duration t
        || Nemesis.to_string c <> Nemesis.to_string t
      in
      Alcotest.(check bool) "strictly simpler" true smaller)
    cands;
  Alcotest.(check bool) "empty shrinks to nothing" true (Nemesis.shrink_candidates [] = [])

(* {2 Invariant registry} *)

let test_invariant_phases () =
  let t = Invariant.create () in
  Invariant.register t ~phase:Invariant.Checkpoint "safety" (fun () -> Error "always");
  Invariant.register t "convergence" (fun () -> Error "later");
  Alcotest.(check (list string)) "names" [ "safety"; "convergence" ] (Invariant.names t);
  let names vs = List.map (fun v -> v.Invariant.v_name) vs in
  Alcotest.(check (list string))
    "checkpoint runs safety only" [ "safety" ]
    (names (Invariant.eval t ~at:1.0 Invariant.Checkpoint));
  Alcotest.(check (list string))
    "quiescence runs everything" [ "safety"; "convergence" ]
    (names (Invariant.eval t ~at:2.0 Invariant.Quiescence))

let test_invariant_raising_oracle () =
  let t = Invariant.create () in
  Invariant.register t "boom" (fun () -> failwith "kaput");
  match Invariant.eval t ~at:3.0 Invariant.Quiescence with
  | [ v ] ->
      Alcotest.(check string) "name" "boom" v.Invariant.v_name;
      Alcotest.(check bool) "reason mentions raise" true
        (String.length v.Invariant.v_reason > 0)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

(* {2 Runner} *)

let find_suite name =
  match Suite.find name with
  | Ok [ s ] -> s
  | Ok _ | Error _ -> Alcotest.failf "suite %s not found" name

(* The pinned bug: base Chord (no fault tolerance) loses its ring under a
   single crash, and the fault-tolerant variant survives the exact same
   fault schedule. This is the repo's standing demo of [splay check]; if
   either side flips, the README walkthrough is stale. *)
let pinned_nemesis = Nemesis.parse "crash 1 @ 20.5959"

let test_pinned_chord_bug () =
  let chord = find_suite "chord" in
  let o = Runner.run_one ~suite:chord ~seed:1 ~nemesis:pinned_nemesis ~perturb:true () in
  Alcotest.(check bool) "base chord fails" true (Suite.failed o);
  Alcotest.(check bool) "violations, not crashes" true (o.Suite.o_crashes = []);
  let names =
    List.map (fun v -> v.Invariant.v_name) o.Suite.o_violations |> List.sort_uniq compare
  in
  Alcotest.(check bool) "ring oracle fired" true
    (List.mem "ring.successor-agreement" names)

let test_pinned_chord_ft_survives () =
  let ft = find_suite "chord-ft" in
  let o = Runner.run_one ~suite:ft ~seed:1 ~nemesis:pinned_nemesis ~perturb:true () in
  Alcotest.(check bool) "ft chord passes" false (Suite.failed o)

(* The dht-store oracle has teeth: crash 13 of the 16 members after the
   last write round (the four rounds span about 48 s) and most keys lose
   their whole replica set — three ring neighbours — before republish can
   move them. [dht.no-lost] must fire as a violation; the run must not crash. *)
let pinned_dht_nemesis = Nemesis.parse "crash 13 @ 52"

let test_pinned_dht_loss () =
  let dht = find_suite "dht-store" in
  let o = Runner.run_one ~suite:dht ~seed:1 ~nemesis:pinned_dht_nemesis ~perturb:true () in
  Alcotest.(check bool) "violations, not crashes" true (o.Suite.o_crashes = []);
  let names = List.map (fun v -> v.Invariant.v_name) o.Suite.o_violations in
  Alcotest.(check (list string)) "the loss oracle fires" [ "dht.no-lost" ] names

let test_replay_determinism () =
  let chord = find_suite "chord" in
  let run () = Runner.run_one ~suite:chord ~seed:1 ~nemesis:pinned_nemesis ~perturb:true () in
  let a = run () and b = run () in
  Alcotest.(check string) "identical outcome" (Suite.outcome_to_string a)
    (Suite.outcome_to_string b)

let test_nemesis_for_is_pure () =
  let chord = find_suite "chord" in
  Alcotest.(check string) "same (suite, seed), same nemesis"
    (Nemesis.to_string (Runner.nemesis_for chord 3))
    (Nemesis.to_string (Runner.nemesis_for chord 3));
  Alcotest.(check bool) "seeds differ" true
    (Nemesis.to_string (Runner.nemesis_for chord 3)
    <> Nemesis.to_string (Runner.nemesis_for chord 4))

(* The sweep contract: --jobs changes wall-clock time only. The same
   suites and seeds must report the same failing sets at any [jobs]. *)
let test_sweep_jobs_independent () =
  let suites = [ find_suite "chord" ] in
  let failing jobs =
    let rep = Runner.sweep ~suites ~seeds:2 ~jobs ~shrink_failures:false () in
    List.map (fun r -> (r.Runner.r_suite, r.Runner.r_failing)) rep.Runner.rep_suites
  in
  let seq = failing 1 in
  Alcotest.(check bool) "chord fails in the sweep" true
    (List.exists (fun (_, f) -> f <> []) seq);
  Alcotest.(check (list (pair string (list int)))) "jobs=2 identical" seq (failing 2)

let test_shrink_minimizes () =
  let chord = find_suite "chord" in
  (* a deliberately padded schedule: the slow op is irrelevant to the bug *)
  let nem = Nemesis.parse "crash 1 @ 20.5959; slow 0.2 @ 40 to 70" in
  let o = Runner.run_one ~suite:chord ~seed:1 ~nemesis:nem ~perturb:true () in
  Alcotest.(check bool) "padded schedule fails" true (Suite.failed o);
  let shrunk, steps = Runner.shrink ~suite:chord ~seed:1 ~perturb:true o in
  Alcotest.(check bool) "still fails" true (Suite.failed shrunk);
  Alcotest.(check bool) "made progress" true (steps >= 1);
  Alcotest.(check bool) "dropped the irrelevant op" true
    (List.length shrunk.Suite.o_nemesis < List.length nem)

let contains hay sub =
  let nh = String.length hay and ns = String.length sub in
  let rec at i = i + ns <= nh && (String.sub hay i ns = sub || at (i + 1)) in
  at 0

let test_replay_command_quotes () =
  let cmd = Runner.replay_command ~suite:"chord" ~seed:1 pinned_nemesis in
  Alcotest.(check bool) "mentions suite, seed and nemesis" true
    (contains cmd "--suite chord" && contains cmd "--seed 1" && contains cmd "--nemesis")

let () =
  Alcotest.run "check"
    [
      ( "perturbation",
        [
          Alcotest.test_case "off is fifo" `Quick test_perturb_off_is_fifo;
          Alcotest.test_case "on changes order" `Quick test_perturb_changes_order;
          Alcotest.test_case "deterministic per seed" `Quick test_perturb_deterministic;
        ] );
      ( "nemesis",
        [
          Alcotest.test_case "roundtrip" `Quick test_nemesis_roundtrip;
          Alcotest.test_case "churn roundtrip" `Quick test_nemesis_churn_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_nemesis_parse_errors;
          Alcotest.test_case "duration" `Quick test_nemesis_duration;
          Alcotest.test_case "shrink candidates" `Quick test_nemesis_shrink;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "phases" `Quick test_invariant_phases;
          Alcotest.test_case "raising oracle" `Quick test_invariant_raising_oracle;
        ] );
      ( "runner",
        [
          Alcotest.test_case "pinned chord bug" `Quick test_pinned_chord_bug;
          Alcotest.test_case "pinned chord-ft survives" `Quick test_pinned_chord_ft_survives;
          Alcotest.test_case "pinned dht-store loss" `Quick test_pinned_dht_loss;
          Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
          Alcotest.test_case "nemesis_for pure" `Quick test_nemesis_for_is_pure;
          Alcotest.test_case "sweep jobs-independent" `Quick test_sweep_jobs_independent;
          Alcotest.test_case "shrink minimizes" `Quick test_shrink_minimizes;
          Alcotest.test_case "replay command" `Quick test_replay_command_quotes;
        ] );
    ]
