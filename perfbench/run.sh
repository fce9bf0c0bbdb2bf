#!/bin/sh
# Build the benchmark and the live daemon from source, then run one
# workload. Usage, from the root of a checkout:
#
#   sh perfbench/run.sh --workload flood --seed 1 --seconds 15 --trace 0
#
# `--workload all` (as the first argument) runs the four workloads in turn
# and fails if any of them does.
#
# Build output goes to standard error; the last line of standard output is
# the JSON result. Dune's shared cache is disabled so the build reads and
# writes only inside the checkout.
set -eu
export DUNE_CACHE=disabled
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . --cache=disabled ./perfbench/main.exe ./bin/splayd.exe 1>&2
if [ "${1:-}" = "--workload" ] && [ "${2:-}" = "all" ]; then
  shift 2
  rc=0
  for w in flood serve_dht churn live_chord; do
    ./_build/default/perfbench/main.exe --workload "$w" "$@" || rc=1
  done
  exit "$rc"
fi
exec ./_build/default/perfbench/main.exe "$@"
