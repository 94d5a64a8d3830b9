#!/usr/bin/env bash
# Builds the campaign-tick benchmark (perfbench/) and runs every workload
# for one second, untraced and then traced. perfbench compiles against the
# privacy meter, AggregationServer::RunRound and the shard API, so a change
# that breaks it fails here instead of in a benchmark run. run.py exits 0
# after an incorrect run as well, so each run must exit 0 and its last line
# (the result JSON) must read "correct": true and "failed": 0.
# Usage: scripts/perfbench_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for TRACE in 0 1; do
  # A run that exits nonzero stops the script here (set -e); its errors
  # went to stderr.
  OUTPUT="$(python3 perfbench/run.py --workload all --seed 1 --seconds 1 \
    --trace "$TRACE")"
  printf '%s\n' "$OUTPUT"
  printf '%s\n' "$OUTPUT" | tail -n 1 | python3 -c '
import json, sys
final = json.loads(sys.stdin.read())
if final.get("correct") is not True or final.get("failed") != 0:
    sys.exit("perfbench --trace %s: correct=%s failed=%s"
             % (sys.argv[1], final.get("correct"), final.get("failed")))
' "$TRACE"
done
