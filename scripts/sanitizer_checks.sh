#!/usr/bin/env bash
# The sanitizer stages of a tree: configure <build-dir> with the
# sanitizers, build the suites they run, and run their selection.
# scripts/check.sh and CI both run it.
# Usage: scripts/sanitizer_checks.sh <address|thread> <build-dir>
#
# address (ASan + UBSan): the fault-injection, wire-fuzz, persistence,
# bitprop property, and kernel suites exercise the decode, failure, shrink,
# and SIMD paths (the kernel tests cover the intrinsics tails and unaligned
# word loads, and the `PrivacyMeter` suite in core_tests the ledger
# encoder's raw-pointer stores into a buffer it sizes once, and its
# one-pass decode's inline loads), and `Crc32` the CRC-32 kernels (the
# PCLMUL folds' unaligned 16-byte loads and the table tail). The linter
# and the analyzer (`LintTest`, `AnalyzeTest`) run instrumented over their
# fixture trees and the real tree, and `RoundWorkers` the round pipeline,
# whose threads read the caller's indices (a respond that throws must not
# leave them reading freed ones). The CMake sanitize block adds
# -fno-sanitize-recover=all and -fsanitize=float-cast-overflow, so any UB
# report aborts the test.
#
# thread (TSan): the obs registry, event ring and tracer are hammered from
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
set -euo pipefail

SANITIZER="${1:?usage: scripts/sanitizer_checks.sh <address|thread> <build-dir>}"
BUILD_DIR="$(realpath -m \
  "${2:?usage: scripts/sanitizer_checks.sh <address|thread> <build-dir>}")"
cd "$(dirname "$0")/.."

case "$SANITIZER" in
  address)
    cmake -B "$BUILD_DIR" -G Ninja -DBITPUSH_SANITIZE=address,undefined
    cmake --build "$BUILD_DIR" \
      --target fault_tests wire_fuzz_tests persist_tests persist_fuzz_tests \
      obs_tests prop_tests kernel_tests shard_tests core_tests lint_tests \
      analyze_tests
    ctest --test-dir "$BUILD_DIR" --output-on-failure \
      -R '(Fault|WireFuzz|Journal|Snapshot|Recovery|PersistFuzz|Obs|Prop|Kernel|Shard|RoundWorkers|PrivacyMeter|Crc32|LintTest|AnalyzeTest)'
    ;;
  thread)
    cmake -B "$BUILD_DIR" -G Ninja -DBITPUSH_SANITIZE=thread
    cmake --build "$BUILD_DIR" \
      --target resilience_tests obs_tests prop_tests kernel_tests shard_tests
    ctest --test-dir "$BUILD_DIR" --output-on-failure \
      -R '(Resilience|Obs|Prop|Kernel|Shard|RoundWorkers)'
    "$BUILD_DIR/tests/shard_tests" --gtest_filter='RoundWorkers*' \
      --gtest_repeat=10
    ;;
  *)
    echo "scripts/sanitizer_checks.sh: unknown sanitizer '$SANITIZER'" \
      "(address or thread)" >&2
    exit 2
    ;;
esac
