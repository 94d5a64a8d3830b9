#!/usr/bin/env bash
# Compares what the drivers print and persist at a base revision with what
# they print and persist in a build of this checkout, so that a change
# meant to keep every output can show which outputs moved.
#
# Usage: scripts/compare_outputs.sh <base-rev> <build-dir> <out-dir>
#
# <build-dir> is an up-to-date build of this checkout; <out-dir> must lie
# outside the checkout. Everything the script writes goes into a new
# directory, <out-dir>/compare.XXXXXX (mktemp), so it never removes or
# overwrites anything that was there before. The script
#   1. exports <base-rev> with `git archive` into its base/ (an export
#      leaves nothing in the repository to prune if it is killed);
#   2. configures and builds it in its base-build/ with the installed
#      toolchain (Release; no dependency is fetched);
#   3. runs this checkout's scripts/driver_outputs.sh on both builds, into
#      its base-outputs/ and outputs/;
#   4. prints the manifest entries that differ, one path a line;
#   5. removes the exported tree and its build;
#   6. exits 0 when the manifests match, 1 when they differ, and 2 on a
#      failure (bad arguments, a failed build or a failed driver run).
set -euo pipefail
export LC_ALL=C

fail() {
  echo "compare_outputs: $*" >&2
  exit 2
}
trap 'fail "command failed at line $LINENO"' ERR

[[ $# -eq 3 ]] || fail "usage: $0 <base-rev> <build-dir> <out-dir>"
REPO="$(cd "$(dirname "$0")/.." && pwd -P)"
BASE_REV="$(git -C "$REPO" rev-parse --verify --quiet "$1^{commit}")" ||
  fail "unknown revision: $1"
[[ -x "$2/tools/bitpush_sim" ]] || fail "not a bitpush build: $2"
BUILD_DIR="$(cd "$2" && pwd)"
OUT_DIR="$(realpath -m "$3")"
case "$OUT_DIR/" in
  "$REPO"/*) fail "<out-dir> must lie outside the checkout: $OUT_DIR" ;;
esac
mkdir -p "$OUT_DIR"
WORK="$(mktemp -d "$OUT_DIR/compare.XXXXXX")"

BASE_SRC="$WORK/base"
BASE_BUILD="$WORK/base-build"
trap 'rm -rf "$BASE_SRC" "$BASE_BUILD"' EXIT
mkdir "$BASE_SRC"

echo "compare_outputs: building ${BASE_REV:0:12} in $BASE_BUILD" >&2
git -C "$REPO" archive "$BASE_REV" | tar -x -C "$BASE_SRC"
cmake -S "$BASE_SRC" -B "$BASE_BUILD" -DCMAKE_BUILD_TYPE=Release \
  > "$WORK/base-configure.log" 2>&1 ||
  fail "configuring the base failed; see $WORK/base-configure.log"
cmake --build "$BASE_BUILD" -j "$(nproc)" > "$WORK/base-build.log" 2>&1 ||
  fail "building the base failed; see $WORK/base-build.log"

"$REPO/scripts/driver_outputs.sh" "$BASE_BUILD" "$WORK/base-outputs" >&2
"$REPO/scripts/driver_outputs.sh" "$BUILD_DIR" "$WORK/outputs" >&2

# Each manifest line is "<sha256>  <path>"; a path that differs in hash or
# is present on one side only is printed once.
DIFFERING="$(join -j 2 -a 1 -a 2 -e missing -o 0,1.1,2.1 \
  <(sort -k 2 "$WORK/base-outputs/manifest.sha256") \
  <(sort -k 2 "$WORK/outputs/manifest.sha256") |
  awk '$2 != $3 { print $1 }')"
echo "compare_outputs: manifests and runs in $WORK" >&2
if [[ -z "$DIFFERING" ]]; then
  echo "compare_outputs: every output matches ${BASE_REV:0:12}"
  exit 0
fi
echo "compare_outputs: outputs that differ from ${BASE_REV:0:12}:"
printf '%s\n' "$DIFFERING"
exit 1
