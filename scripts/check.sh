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

# Sanitizer stages: ASan + UBSan over the decode, failure, persistence,
# property, kernel, shard, round-pipeline and static-analysis suites, then
# TSan over the threaded ones, with `RoundWorkers*` ten times more
# (scripts/sanitizer_checks.sh says why each suite is there).
scripts/sanitizer_checks.sh address "$BUILD_DIR-asan"
scripts/sanitizer_checks.sh thread "$BUILD_DIR-tsan"

# Campaign stages: crash recovery at five journal cut points, a second
# crash while recovering and a 4-shard restart, and the exporters
# (goldens, Prometheus families, JSONL, doctor, Chrome trace).
scripts/campaign_checks.sh "$BUILD_DIR"

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
