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
# metering, wire exhaustiveness, obs stability, header hygiene, unreached
# modules and functions, and waivers that are malformed or suppress
# nothing) should fail the run in seconds, before any expensive sanitizer
# build starts.
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

# Driver-output stage: the examples, the paper benches at reduced size,
# bitpush_sim's analysis tasks and a 1- and 4-shard durable campaign, run
# twice, the second time on one CPU (`taskset -c 0`, so one shard thread
# and one round worker); the sha256 manifests of their stdout, journals
# and snapshots must match, so that no output changes from run to run or
# with the number of shard threads and round workers. Run against a
# parent build, the same script shows that a change keeps every output
# (docs/TESTING.md). Keep in sync with CI's "Driver outputs" step.
OUTPUTS_ROOT="$(mktemp -d)"
scripts/driver_outputs.sh "$BUILD_DIR" "$OUTPUTS_ROOT/first"
taskset -c 0 scripts/driver_outputs.sh "$BUILD_DIR" "$OUTPUTS_ROOT/second"
diff -u "$OUTPUTS_ROOT/first/manifest.sha256" \
  "$OUTPUTS_ROOT/second/manifest.sha256"
rm -rf "$OUTPUTS_ROOT"

# Benchmark stage: perfbench builds its own Release tree under .bench_build/
# and runs every workload for a second, untraced and traced; each run must
# exit 0 and end on a result line that reads "correct": true and
# "failed": 0. Keep in sync with CI's "Campaign-tick benchmark" step.
scripts/perfbench_check.sh

# Scalar leg: BITPUSH_SIMD=OFF must stay a first-class configuration — the
# dispatch table, the columnar batch pipeline, and every hot caller fall
# back to the bit-identical scalar kernel. Two layers: the env override on
# the SIMD build (cheap; exercises the runtime latch in src/kernels/
# dispatch.cc, with the kernel suites and the CRC-32 suite, whose table
# path the override selects), then a full scalar compile with the whole
# suite.
BITPUSH_SIMD=OFF ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R '(Kernel|Crc32)'
cmake -B "$BUILD_DIR-scalar" -G Ninja -DBITPUSH_SIMD=OFF
cmake --build "$BUILD_DIR-scalar"
ctest --test-dir "$BUILD_DIR-scalar" --output-on-failure

# Sanitized pass: the fault-injection, wire-fuzz, persistence, bitprop
# property, and kernel suites exercise the decode, failure, shrink, and
# SIMD paths, so run them under ASan+UBSan too (the kernel tests cover the
# intrinsics tails and unaligned word loads, and the `PrivacyMeter` suite
# in core_tests the ledger encoder's raw-pointer stores into a buffer it
# sizes once, and its one-pass decode's inline loads), and `Crc32` the
# CRC-32 kernels (the PCLMUL folds' unaligned 16-byte loads and the table
# tail). The linter and the analyzer (`LintTest`, `AnalyzeTest`) run
# instrumented over their fixture trees and the real tree, and
# `RoundWorkers` the round pipeline, whose threads read the caller's
# indices (a respond that throws must not leave them reading freed ones).
# Keep the targets and the regex in sync with CI's address-sanitizer job.
cmake -B "$BUILD_DIR-asan" -G Ninja -DBITPUSH_SANITIZE=address,undefined
cmake --build "$BUILD_DIR-asan" \
  --target fault_tests wire_fuzz_tests persist_tests persist_fuzz_tests \
  obs_tests prop_tests kernel_tests shard_tests core_tests lint_tests \
  analyze_tests
ctest --test-dir "$BUILD_DIR-asan" --output-on-failure \
  -R '(Fault|WireFuzz|Journal|Snapshot|Recovery|PersistFuzz|Obs|Prop|Kernel|Shard|RoundWorkers|PrivacyMeter|Crc32|LintTest|AnalyzeTest)'

# TSan pass: the obs registry, event ring and tracer are hammered from
# several threads (the `Obs` alternate runs those race tests), and the
# kernel dispatch latch and ScopedForceScalar are atomics (`Kernel`). The
# resilience suite drives the collection state machines, and the bitprop
# suites ride along so the differential oracles also run instrumented.
# ShardedCampaignRunner runs a tick's shards on worker threads, so the
# shard suites (`Shard`: the determinism cases, the kill matrix and the
# chaos suites) and the sharded oracle in `Prop` run here, as does
# `RoundWorkers` (in shard_tests): a round's stage and apply steps on 1, 2
# and 4 threads, overlapping its respond step, must give the same outcome,
# ledger, journal and RNG state. The overlap's interleavings vary from run
# to run, so `RoundWorkers*` then runs ten more times.
cmake -B "$BUILD_DIR-tsan" -G Ninja -DBITPUSH_SANITIZE=thread
cmake --build "$BUILD_DIR-tsan" \
  --target resilience_tests obs_tests prop_tests kernel_tests shard_tests
ctest --test-dir "$BUILD_DIR-tsan" --output-on-failure \
  -R '(Resilience|Obs|Prop|Kernel|Shard|RoundWorkers)'
"$BUILD_DIR-tsan/tests/shard_tests" --gtest_filter='RoundWorkers*' \
  --gtest_repeat=10

# Crash-recovery stage: run a durable campaign, kill it (exit 137, the
# SIGKILL status) after N journal appends, restart it against the same
# state directory, and require the recovered stdout to be byte-identical to
# an uninterrupted run. The crash harness loses every record appended since
# the last group commit (docs/PERSISTENCE.md). The campaign writes 22
# records, one per closed round, finished query and closed tick, and each
# round close is committed as it is appended, so a kill at a round close
# loses that round: the crash points cover a kill before the first commit
# (1: nothing reached disk), kills inside tick 0 after a round committed
# (2, in the first query's round 2; 4, in the second query's round 1),
# inside tick 1 after its round 1 committed (9), and two ticks in, in tick
# 2's second query after its round 1 committed (16). The deterministic
# metrics and events snapshots and the alert timeline must survive every
# one of them.
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

for CRASH_AT in 1 2 4 9 16; do
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
  # The first commit lands after record 1: a crash at it leaves an empty
  # journal and the restart runs fresh; a later one leaves committed
  # rounds to restore.
  RECOVERED=0
  if grep -q 'recovered state:' "$CRASHED.err"; then RECOVERED=1; fi
  if [[ "$RECOVERED" -ne $(( CRASH_AT >= 2 )) ]]; then
    echo "crash-recovery: crash at record $CRASH_AT: recovered=$RECOVERED is not what the commit points imply" >&2
    exit 1
  fi
  diff -u "$STATE_ROOT/clean.out" "$CRASHED.out"
  diff -u "$STATE_ROOT/clean.snapshot" "$CRASHED.snapshot"
  diff -u "$STATE_ROOT/clean.events.snapshot" "$CRASHED.events.snapshot"
  diff -u "$STATE_ROOT/clean.alerts.txt" "$CRASHED.alerts.txt"
  echo "crash-recovery: crash at record $CRASH_AT recovered byte-identical to the clean run"
done

# Restart stage: a recovering run that is killed again, and a sharded
# campaign restarted after its shards took snapshots. A single coordinator
# closes 3 ticks with a snapshot every second tick, is reopened for 6 and
# killed after 2, 4 or 6 appended records (at tick 3's second round close
# and at its tick close, both before tick 3's snapshot, and at tick 4's
# second round close, after it; the reopened run appends 15), then
# reopened once more. Four shards close 3
# ticks with a snapshot every tick or every second tick, then the
# campaign is reopened for 6. Each final reopen must exit 0 and print what
# an uninterrupted 6-tick run prints, apart from the two shard counters
# that count the restart itself. Keep in sync with CI's "Second crash and
# sharded restart" step.
RESTART_ARGS=(--task=campaign --n=400 --seed=99)
RESTART_COUNTERS='^shard_(recoveries|replayed_records) '
"$SIM" "${RESTART_ARGS[@]}" --ticks=6 --snapshot_every=2 \
  --state_dir="$STATE_ROOT/restart-clean" > "$STATE_ROOT/restart-clean.out"
for CRASH_AT in 2 4 6; do
  RESTARTED="$STATE_ROOT/second-crash-$CRASH_AT"
  "$SIM" "${RESTART_ARGS[@]}" --ticks=3 --snapshot_every=2 \
    --state_dir="$RESTARTED" > /dev/null
  set +e
  "$SIM" "${RESTART_ARGS[@]}" --ticks=6 --snapshot_every=2 \
    --crash_after_records="$CRASH_AT" --state_dir="$RESTARTED" > /dev/null 2>&1
  CRASH_STATUS=$?
  set -e
  if [[ "$CRASH_STATUS" -ne 137 ]]; then
    echo "restart: expected the recovering run to crash at record $CRASH_AT (exit 137), got $CRASH_STATUS" >&2
    exit 1
  fi
  "$SIM" "${RESTART_ARGS[@]}" --ticks=6 --snapshot_every=2 \
    --state_dir="$RESTARTED" > "$RESTARTED.out" 2> /dev/null
  diff -u "$STATE_ROOT/restart-clean.out" "$RESTARTED.out"
  echo "restart: second crash at record $CRASH_AT recovered byte-identical to the clean run"
done
for EVERY in 1 2; do
  RESTARTED="$STATE_ROOT/sharded-restart-$EVERY"
  "$SIM" "${RESTART_ARGS[@]}" --shards=4 --ticks=6 --snapshot_every="$EVERY" \
    --state_dir="$RESTARTED-clean" | grep -Ev "$RESTART_COUNTERS" \
    > "$RESTARTED-clean.out"
  "$SIM" "${RESTART_ARGS[@]}" --shards=4 --ticks=3 --snapshot_every="$EVERY" \
    --state_dir="$RESTARTED" > /dev/null
  "$SIM" "${RESTART_ARGS[@]}" --shards=4 --ticks=6 --snapshot_every="$EVERY" \
    --state_dir="$RESTARTED" > "$RESTARTED.raw"
  grep -Ev "$RESTART_COUNTERS" "$RESTARTED.raw" > "$RESTARTED.out"
  diff -u "$RESTARTED-clean.out" "$RESTARTED.out"
  echo "restart: 4 shards snapshotting every $EVERY tick(s) resumed byte-identical to the clean run"
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
"$DOCTOR" --state_dir="$STATE_ROOT/crashed-9" \
  --events="$STATE_ROOT/events.jsonl" \
  --metrics="$STATE_ROOT/metrics.prom" \
  --out="$STATE_ROOT/doctor.txt"
grep -q '^== journal ' "$STATE_ROOT/doctor.txt"
grep -q '^  tick 0 query 0 round 1: contacts=' "$STATE_ROOT/doctor.txt"
grep -q 'FIRED.*rule=privacy_burn_rate' "$STATE_ROOT/doctor.txt"
# The doctor also reads a snapshot-truncated journal: shard0 of a sharded
# run that snapshots every second tick. After 3 ticks its journal starts
# past sequence 0; after 4 the last snapshot has emptied it.
for TICKS in 3 4; do
  SHARDED="$STATE_ROOT/sharded-$TICKS"
  "$SIM" --task=campaign --n=400 --ticks="$TICKS" --seed=99 --shards=4 \
    --snapshot_every=2 --state_dir="$SHARDED" > /dev/null 2>&1
  "$DOCTOR" --state_dir="$SHARDED/shard0" --out="$SHARDED.doctor.txt"
  grep -q '^== journal ' "$SHARDED.doctor.txt"
  grep -q '^snapshot.bin: present' "$SHARDED.doctor.txt"
  if grep -q 'UNREADABLE' "$SHARDED.doctor.txt"; then
    echo "exporters: doctor could not read shard0's journal after $TICKS ticks" >&2
    exit 1
  fi
done
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
  else
    "$b"
  fi
  echo
done
