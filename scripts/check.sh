#!/usr/bin/env bash
# Full verification: configure, build, run every test, run every benchmark.
# Usage: scripts/check.sh [--long] [build-dir]
#
# --long raises BITPROP_ITERS so every bitprop property (tests/prop/) runs
# its extended iteration count — the same knob the nightly property-long CI
# job uses. Each property still clamps at its own max_iterations cap.
set -euo pipefail

LONG_MODE=0
if [[ "${1:-}" == "--long" ]]; then
  LONG_MODE=1
  shift
fi

BUILD_DIR="${1:-build}"
cd "$(dirname "$0")/.."

if [[ "$LONG_MODE" -eq 1 ]]; then
  export BITPROP_ITERS="${BITPROP_ITERS:-5000}"
  echo "check.sh: long mode, BITPROP_ITERS=$BITPROP_ITERS"
fi

cmake -B "$BUILD_DIR" -G Ninja

# Lint stage first: project-invariant violations (determinism, privacy
# metering, wire exhaustiveness, obs stability, header hygiene) should
# fail the run in seconds, before any expensive sanitizer build starts.
# The waiver budget is printed so reviewers can watch it grow.
cmake --build "$BUILD_DIR" --target bitpush_lint
"$BUILD_DIR/tools/bitpush_lint" --root=. --list-waivers
"$BUILD_DIR/tools/bitpush_lint" --root=.

# Dataflow stage: the cross-TU passes (privacy-taint from client values to
# wire/journal/obs sinks, determinism-flow over Rng seed lineage) catch
# what the token-level lint cannot — a leak laundered through a helper in
# another TU. Same contract as the lint stage: waiver budget printed,
# unwaived findings fail the run.
cmake --build "$BUILD_DIR" --target bitpush_analyze
"$BUILD_DIR/tools/bitpush_analyze" --root=. --list-waivers
"$BUILD_DIR/tools/bitpush_analyze" --root=.

cmake --build "$BUILD_DIR"
ctest --test-dir "$BUILD_DIR" --output-on-failure

# Scalar leg: BITPUSH_SIMD=OFF must stay a first-class configuration — the
# dispatch table, the columnar batch pipeline, and every hot caller fall
# back to the bit-identical scalar kernel. Two layers: the env override on
# the SIMD build (cheap; exercises the runtime latch in src/kernels/
# dispatch.cc), then a full scalar compile with the whole suite.
BITPUSH_SIMD=OFF ctest --test-dir "$BUILD_DIR" --output-on-failure -R Kernel
cmake -B "$BUILD_DIR-scalar" -G Ninja -DBITPUSH_SIMD=OFF
cmake --build "$BUILD_DIR-scalar"
ctest --test-dir "$BUILD_DIR-scalar" --output-on-failure

# Sanitized pass: the fault-injection, wire-fuzz, persistence, bitprop
# property, and kernel suites exercise the decode, failure, shrink, and
# SIMD paths, so run them under ASan+UBSan too (the kernel tests cover the
# intrinsics tails and unaligned word loads).
cmake -B "$BUILD_DIR-asan" -G Ninja -DBITPUSH_SANITIZE=address,undefined
cmake --build "$BUILD_DIR-asan" \
  --target fault_tests wire_fuzz_tests persist_tests persist_fuzz_tests \
  obs_tests prop_tests kernel_tests shard_tests
ctest --test-dir "$BUILD_DIR-asan" --output-on-failure \
  -R '(Fault|WireFuzz|Journal|Snapshot|Recovery|PersistFuzz|Obs|Prop|Kernel|Shard)'

# TSan pass: the obs registry, event ring and tracer are hammered from
# several threads (the `Obs` alternate runs those race tests), and the
# kernel dispatch latch and ScopedForceScalar are atomics (`Kernel`). The
# fleet and resilience suites drive the collection state machines, and the
# bitprop suites ride along so the differential oracles also run
# instrumented.
cmake -B "$BUILD_DIR-tsan" -G Ninja -DBITPUSH_SANITIZE=thread
cmake --build "$BUILD_DIR-tsan" \
  --target concurrency_tests resilience_tests obs_tests prop_tests \
  kernel_tests
ctest --test-dir "$BUILD_DIR-tsan" --output-on-failure \
  -R '(Fleet|Resilience|Obs|Prop|Kernel)'

# Crash-recovery stage: run a durable campaign, kill it (exit 137, the
# SIGKILL status) after N journal appends, restart it against the same
# state directory, and require the recovered stdout to be byte-identical to
# an uninterrupted run. The crash harness loses every record appended since
# the last group commit (docs/PERSISTENCE.md), so the crash points cover a
# kill before the first commit (1, 120: nothing reached disk), kills inside
# a query whose round 1 committed (500, 1200), and a kill two ticks in
# (3000). The deterministic metrics and events snapshots and the alert
# timeline must survive every one of them.
STATE_ROOT="$(mktemp -d)"
trap 'rm -rf "$STATE_ROOT"' EXIT
SIM="$BUILD_DIR/tools/bitpush_sim"
SIM_ARGS=(--task=campaign --n=400 --ticks=4 --seed=99)

"$SIM" "${SIM_ARGS[@]}" --state_dir="$STATE_ROOT/clean" \
  --metrics_out="$STATE_ROOT/clean.snapshot" \
  --trace_out="$STATE_ROOT/clean.trace.json" \
  --events_out="$STATE_ROOT/clean.events.snapshot" \
  --alerts_out="$STATE_ROOT/clean.alerts.txt" \
  > "$STATE_ROOT/clean.out"

for CRASH_AT in 1 120 500 1200 3000; do
  CRASHED="$STATE_ROOT/crashed-$CRASH_AT"
  set +e
  "$SIM" "${SIM_ARGS[@]}" --state_dir="$CRASHED" \
    --crash_after_records="$CRASH_AT" > /dev/null 2>&1
  CRASH_STATUS=$?
  set -e
  if [[ "$CRASH_STATUS" -ne 137 ]]; then
    echo "crash-recovery: expected simulated crash at record $CRASH_AT (exit 137), got $CRASH_STATUS" >&2
    exit 1
  fi

  "$SIM" "${SIM_ARGS[@]}" --state_dir="$CRASHED" \
    --metrics_out="$CRASHED.snapshot" \
    --events_out="$CRASHED.events.snapshot" \
    --alerts_out="$CRASHED.alerts.txt" \
    > "$CRASHED.out" 2> "$CRASHED.err"
  # The first commit lands after record 269: an earlier crash leaves an
  # empty journal and the restart runs fresh; a later one leaves
  # committed rounds to replay.
  RECOVERED=0
  if grep -q 'recovered state:' "$CRASHED.err"; then RECOVERED=1; fi
  if [[ "$RECOVERED" -ne $(( CRASH_AT >= 500 )) ]]; then
    echo "crash-recovery: crash at record $CRASH_AT: recovered=$RECOVERED is not what the commit points imply" >&2
    exit 1
  fi
  diff -u "$STATE_ROOT/clean.out" "$CRASHED.out"
  diff -u "$STATE_ROOT/clean.snapshot" "$CRASHED.snapshot"
  diff -u "$STATE_ROOT/clean.events.snapshot" "$CRASHED.events.snapshot"
  diff -u "$STATE_ROOT/clean.alerts.txt" "$CRASHED.alerts.txt"
  echo "crash-recovery: crash at record $CRASH_AT recovered byte-identical to the clean run"
done

# Exporter-validation stage. The stable metrics, the flight recorder's
# stable event stream and the fired-alert timeline were crash-exact above;
# here they are pinned by the checked-in goldens. The Prometheus export
# must carry the documented metric families, and the trace export must be
# well-formed Chrome trace-event JSON with events.
diff -u tests/golden/campaign_metrics.snapshot "$STATE_ROOT/clean.snapshot"
diff -u tests/golden/campaign_events.snapshot "$STATE_ROOT/clean.events.snapshot"
diff -u tests/golden/campaign_alerts.txt "$STATE_ROOT/clean.alerts.txt"
echo "exporters: metrics and events snapshots and alert timeline are crash-exact and match the goldens"

"$SIM" "${SIM_ARGS[@]}" --state_dir="$STATE_ROOT/prom" \
  --metrics_out="$STATE_ROOT/metrics.prom" \
  --events_out="$STATE_ROOT/events.jsonl" > /dev/null
for metric in bitpush_rounds_total bitpush_campaign_ticks_total \
    bitpush_wire_payload_bytes_total bitpush_meter_epsilon_spent \
    bitpush_journal_records_total bitpush_round_sim_minutes_bucket \
    bitpush_alert_state; do
  grep -q "^$metric" "$STATE_ROOT/metrics.prom" \
    || { echo "exporters: $metric missing from Prometheus output" >&2; exit 1; }
done

# The full (stable + volatile) event log exports as JSONL; every line must
# be well-formed JSON. bitpush_doctor doubles as the validator, and its
# post-mortem report over the crashed-then-recovered state directory must
# see the journal, the events, and the fired alert.
DOCTOR="$BUILD_DIR/tools/bitpush_doctor"
"$DOCTOR" --validate_events="$STATE_ROOT/events.jsonl"
"$DOCTOR" --state_dir="$STATE_ROOT/crashed-1200" \
  --events="$STATE_ROOT/events.jsonl" \
  --metrics="$STATE_ROOT/metrics.prom" \
  --out="$STATE_ROOT/doctor.txt"
grep -q '^== journal ' "$STATE_ROOT/doctor.txt"
grep -q 'FIRED.*rule=privacy_burn_rate' "$STATE_ROOT/doctor.txt"
echo "exporters: events JSONL well-formed; doctor post-mortem report complete"
python3 - "$STATE_ROOT/clean.trace.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace export has no events"
for event in events:
    assert event["ph"] == "X" and "ts" in event and "dur" in event, event
print(f"exporters: trace JSON well-formed ({len(events)} events)")
PYEOF

for b in "$BUILD_DIR"/bench/*; do
  echo "### $b"
  if [[ "$(basename "$b")" == bench_micro_throughput ]]; then
    # Also emit the machine-readable benchmark dump; the binary's own
    # guards run after the benchmarks and fail the stage if enabling
    # metrics costs >= 2% on the EncodeAll hot path, or if the columnar
    # kernel pipeline is not >= 10x the per-report scalar path
    # (BENCH_kernel_throughput.json records the measurement; the kernel
    # guard self-skips on hardware with no SIMD kernel).
    # BITPUSH_OBS_BENCH_JSON captures the obs-overhead guard's two paths
    # (metrics timer, event ring) as a machine-readable artifact.
    BITPUSH_KERNEL_BENCH_JSON="BENCH_kernel_throughput.json" \
    BITPUSH_OBS_BENCH_JSON="$BUILD_DIR/BENCH_obs_overhead.json" \
      "$b" --benchmark_out="$BUILD_DIR/BENCH_micro_throughput.json" \
      --benchmark_out_format=json
  elif [[ "$(basename "$b")" == bench_shard_scaling ]]; then
    # Shard-out makespan scaling (docs/SHARDING.md); the JSON lands next
    # to the other BENCH_* artifacts.
    BITPUSH_SHARD_BENCH_JSON="$BUILD_DIR/BENCH_shard_scaling.json" "$b"
  else
    "$b"
  fi
  echo
done
