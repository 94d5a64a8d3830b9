#!/usr/bin/env bash
# Runs the drivers that reproduce the paper and writes a sorted sha256
# manifest of what they print and persist, so that a change meant to keep
# every output can show it did.
#
# Usage: scripts/driver_outputs.sh <build-dir> <out-dir>
#
# Runs, from <out-dir>/run (emptied first) as the working directory and
# with TMPDIR inside it:
#   * all 11 examples;
#   * every bench but bench_micro_throughput (google-benchmark timings),
#     at reduced size, with only the flags that bench accepts;
#   * bitpush_sim's seven non-campaign tasks;
#   * bitpush_sim --task=campaign --n=400 --ticks=4 --seed=99 at 1 shard,
#     and at 4 shards with --snapshot_every=2, each in a fresh state dir.
# <out-dir>/manifest.sha256 lists the stdout of every run and every
# journal.wal and snapshot.bin the campaigns leave. Every driver is seeded,
# so two runs of one build, or runs of two builds that change no output,
# write the same manifest:
#   scripts/driver_outputs.sh build /tmp/a
#   scripts/driver_outputs.sh build /tmp/b
#   diff /tmp/a/manifest.sha256 /tmp/b/manifest.sha256
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
BUILD_DIR="$(cd "$1" && pwd)"
mkdir -p "$2"
OUT_DIR="$(cd "$2" && pwd)"
RUN="$OUT_DIR/run"
rm -rf "$RUN"
mkdir -p "$RUN/stdout" "$RUN/state" "$RUN/tmp"
cd "$RUN"
export TMPDIR="$RUN/tmp"

# run <name> <command...>: the command's stdout lands in stdout/<name>.
run() {
  local name="$1"
  shift
  "$@" > "stdout/$name"
}

for example in "$BUILD_DIR"/examples/*; do
  [[ -f "$example" && -x "$example" ]] || continue
  run "example_$(basename "$example")" "$example"
done

# Benches reject flags they do not declare: fig2a, fig2b and the
# sensitivity grid sweep their own client counts (no --n), and fig4b
# runs once (no --reps).
for bench in "$BUILD_DIR"/bench/bench_*; do
  [[ -f "$bench" && -x "$bench" ]] || continue
  name="$(basename "$bench")"
  case "$name" in
    bench_micro_throughput) continue ;;
    bench_fig2a_census_mean_vs_n | bench_fig2b_census_var_vs_n | \
      bench_sensitivity_grid)
      args=(--reps=4) ;;
    bench_fig4b_bitmeans_histogram) args=(--n=2000) ;;
    *) args=(--n=2000 --reps=4) ;;
  esac
  run "$name" "$bench" "${args[@]}"
done

SIM="$BUILD_DIR/tools/bitpush_sim"
run sim_mean "$SIM" --task=mean --workload=census --n=2000
run sim_variance "$SIM" --task=variance --workload=normal --mu=1000 \
  --sigma=100 --n=2000
run sim_histogram "$SIM" --task=histogram --workload=exponential \
  --buckets=16 --n=2000
run sim_quantiles "$SIM" --task=quantiles --workload=census --n=2000
run sim_proportion "$SIM" --task=proportion --workload=census --n=2000 \
  --range_low=18 --range_high=64
run sim_diagnose "$SIM" --task=diagnose --workload=census --n=2000
run sim_plan "$SIM" --task=plan --bits=8 --epsilon=1 --target_nrmse=0.02

CAMPAIGN=(--task=campaign --n=400 --ticks=4 --seed=99)
run sim_campaign_1shard "$SIM" "${CAMPAIGN[@]}" \
  --state_dir="$RUN/state/campaign_1shard"
run sim_campaign_4shards "$SIM" "${CAMPAIGN[@]}" --shards=4 \
  --snapshot_every=2 --state_dir="$RUN/state/campaign_4shards"

find stdout state -type f \
  \( -path 'stdout/*' -o -name journal.wal -o -name snapshot.bin \) \
  -print0 | sort -z | xargs -0 sha256sum > "$OUT_DIR/manifest.sha256"
echo "driver_outputs: $(wc -l < "$OUT_DIR/manifest.sha256") outputs hashed" \
  "into $OUT_DIR/manifest.sha256"
