all:
	dune build @all

check:
	dune build @all && dune runtest && $(MAKE) trace-demo && $(MAKE) bench-smoke && $(MAKE) bench-scale-smoke && $(MAKE) bench-obs-smoke && $(MAKE) bench-par-smoke && $(MAKE) bench-serve-smoke && $(MAKE) check-smoke && $(MAKE) live-smoke

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Quick benchmark smoke test: one parallelized figure plus the framework
# microbenchmarks, fanned out over two domains to exercise the Pool/Obs
# multicore path end to end. Writes the bench json to an untracked path so
# `make check` never dirties the committed BENCH_engine.json baseline.
bench-smoke:
	dune exec bench/main.exe -- fig7a micro macro --jobs 2 --bench-out=_build/BENCH_engine.smoke.json --bench-macro-out=_build/BENCH_macro.smoke.json
	scripts/check_bench_floors.sh _build/BENCH_macro.smoke.json BENCH_macro.floors.json
	@echo "bench-smoke: OK"

# Scale smoke test: the 10k-node single-run workloads (quick scale covers
# 1k and 10k), guarded by ops/sec floors AND resident-words-per-node
# ceilings — a footprint regression that would push the million-node run
# out of memory budget trips here, long before anyone runs a million
# nodes. Same untracked-output story as bench-smoke.
bench-scale-smoke:
	dune exec bench/main.exe -- scale --bench-scale-out=_build/BENCH_scale.smoke.json
	scripts/check_bench_floors.sh _build/BENCH_scale.smoke.json BENCH_scale.floors.json
	@echo "bench-scale-smoke: OK"

# Refresh the committed BENCH_engine.json and BENCH_macro.json baselines
# (explicit, never part of check). --jobs 2 makes the macro baseline
# record both single-domain and fanned-out rates.
bench-baseline:
	dune exec bench/main.exe -- micro macro --jobs 2

# Metrics-plane smoke test: the macro workloads with a metrics dump
# enabled end to end (exercising Obs_flags parsing, rollup capture/absorb
# across 2 domains, and the JSONL writer), the obs-overhead floors —
# the _obs twin rows must hold their budgeted rates — and a `splay top`
# render of the dump.
bench-obs-smoke:
	dune exec bench/main.exe -- macro --jobs 2 --bench-macro-out=_build/BENCH_macro.obs-smoke.json --metrics-out=_build/metrics.obs-smoke.jsonl
	scripts/check_bench_floors.sh _build/BENCH_macro.obs-smoke.json BENCH_macro.floors.json
	dune exec bin/splay_cli.exe -- top _build/metrics.obs-smoke.jsonl | grep -q "percentile columns:"
	@echo "bench-obs-smoke: OK"

# Parallel-engine smoke test: the 100k-node epidemic flood, sequential
# vs one deployment over 4 partitions on the windowed parallel engine.
# The floors are core-count-aware: a >= 4-core machine must show the
# real >= 2x speedup, a 1-core container only the no-collapse bound on
# windowing overhead (the par row's workers field says which machine CI
# actually was). Same untracked-output story as bench-smoke.
bench-par-smoke:
	dune exec bench/main.exe -- par --domains 4 --bench-par-out=_build/BENCH_par.smoke.json
	scripts/check_bench_floors.sh _build/BENCH_par.smoke.json BENCH_par.floors.json
	@echo "bench-par-smoke: OK"

# Serving-fast-path smoke test: the quick open-loop sweep (1M virtual
# clients over 10k nodes, offered load stepped through the baseline
# knee) guarded by the serve floors — sustained throughput, bounded
# words per idle client, the all-on p99 improvement past the knee, the
# coalescer's origin-fetch savings, and zero stale cache serves. The
# parallel-engine row's speedup floor is core-count-aware like
# bench-par-smoke. Same untracked-output story as bench-smoke.
bench-serve-smoke:
	dune exec bench/main.exe -- serve --bench-serve-out=_build/BENCH_serve.smoke.json
	scripts/check_bench_floors.sh _build/BENCH_serve.smoke.json BENCH_serve.floors.json
	@echo "bench-serve-smoke: OK"

# Simulation-testing gates. check-smoke is the fast always-green CI gate;
# check-fuzz is the broad fault-injection sweep over every suite (base
# chord is *expected* to fail it — the || true keeps the target usable as
# a bug-hunting report rather than a pass/fail gate).
check-smoke:
	dune exec bin/splay_cli.exe -- check --suite smoke --seeds 50 --jobs 2
	dune exec bin/splay_cli.exe -- check --suite dht-store --seeds 12 --jobs 2
	dune exec bin/splay_cli.exe -- check --suite webcache --seeds 12 --jobs 2
	@echo "check-smoke: OK"

check-fuzz:
	dune exec bin/splay_cli.exe -- check --suite all --seeds 25 --jobs 4 || true

# Live-backend smoke test: 10 real splayd processes over loopback TCP
# run Chord, all lookups must resolve, the structural invariants must
# match the simulated twin (zero contract violations), every child is
# reaped, and a SIGKILLed controller leaves no orphans behind. Failure
# collects the per-daemon logs into _build/live-logs/.
live-smoke:
	dune build bin/splay_cli.exe bin/splayd.exe
	scripts/live_smoke.sh
	@echo "live-smoke: OK"

# Deterministic-output gate for the benchmark: seed 0 of flood, serve_dht
# and churn must print the digests pinned in scripts/perfbench_digests.txt.
# A pin changes only with a CHANGES.md entry explaining the move.
perfbench-digests:
	scripts/check_perfbench_digests.sh
	@echo "perfbench-digests: OK"

# End-to-end tracing demo: run a traced Chord deployment, then verify the
# analyzer extracts a non-empty RPC critical path from the dump.
trace-demo:
	dune exec bin/splay_cli.exe -- run --app chord --testbed cluster \
	  --hosts 4 --nodes 8 --duration 60 --lookups 25 \
	  --trace /tmp/splay-trace-demo.jsonl > /dev/null
	dune exec bin/splay_cli.exe -- trace /tmp/splay-trace-demo.jsonl --critical-path \
	  | tee /dev/stderr | grep -q "rpc\."
	@echo "trace-demo: OK (critical path extracted)"

.PHONY: all check test bench bench-smoke bench-scale-smoke bench-obs-smoke bench-par-smoke bench-serve-smoke bench-baseline trace-demo check-smoke check-fuzz live-smoke perfbench-digests
