#!/bin/sh
# Check that the simulated outputs have not moved: run each perfbench
# workload pinned in scripts/perfbench_digests.txt at its pinned seed and
# compare the `digest` line it prints with the pin. A run that fails (an
# output check, or repetitions whose digests disagree) fails the gate.
# Run from the root of a checkout. Each pin line is "workload seed
# digest"; `#` starts a comment line. A pin changes only in a change
# whose CHANGES.md entry explains why the simulated outputs moved.
set -eu
rc=0
while read -r workload seed want; do
  case "$workload" in '' | '#'*) continue ;; esac
  out=$(sh perfbench/run.sh --workload "$workload" --seed "$seed" --seconds 1 --trace 0 </dev/null) || {
    echo "digest FAIL $workload seed=$seed: run failed"
    rc=1
    continue
  }
  got=$(printf '%s\n' "$out" | sed -n "s/^digest $workload seed=$seed: //p")
  if [ "$got" = "$want" ]; then
    echo "digest OK   $workload seed=$seed $got"
  else
    echo "digest FAIL $workload seed=$seed: got '$got', pinned $want"
    rc=1
  fi
done < scripts/perfbench_digests.txt
exit "$rc"
