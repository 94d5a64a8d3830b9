// Project-invariant static analysis for the bitpush tree.
//
// The repository carries three machine-checkable contracts that ordinary
// compilers cannot see: seeded determinism (crash-recovered campaigns must
// replay byte-identically — docs/PERSISTENCE.md), bit-level privacy
// metering (no client bit is disclosed without a PrivacyMeter charge —
// paper §1.1, core/privacy_meter.h), and wire/journal format
// exhaustiveness (every record type must encode, decode, and be fuzzed —
// federated/wire.h, persist/journal.h). `bitpush_lint` enforces them as
// named token/line-level checks over src/, tests/, bench/, and tools/,
// with no compiler dependency, so the invariants fail a PR at lint time
// instead of depending on reviewer memory.
//
// A fourth rule keeps the library lean: every src/ file, and every
// function in it, must be code a driver runs.
//
// Checks (see docs/STATIC_ANALYSIS.md for the full catalogue):
//
//   determinism         bans ambient-entropy and wall-clock constructs
//                       (std::random_device, std::rand, time(),
//                       system_clock/steady_clock, std RNG engines)
//                       outside the wall-clock allowlist.
//   privacy-metering    a TU that serializes or constructs client bit
//                       reports must reference the PrivacyMeter charge
//                       path (TryChargeBit) or carry a waiver.
//   wire-exhaustiveness every frame-kind enumerator and Encode/Decode
//                       message pair declared in federated/wire.h,
//                       persist/journal.h, and federated/shard/merge.h
//                       must be referenced by the library and exercised
//                       by a fuzz or golden test; wire-section version
//                       constants (k*Version) must gate a codec path in
//                       src/ and be named by a fuzz/golden case that
//                       proves fail-closed decoding.
//   obs-stability       files allowed to touch wall clocks may not
//                       register Determinism::kStable instruments.
//   header-hygiene      canonical include guards, no `using namespace`
//                       in headers, direct includes for std vocabulary
//                       types (self-containment), and SIMD intrinsics
//                       headers (<immintrin.h>, <arm_neon.h>, ...)
//                       confined to src/kernels/.
//   unreached-module    every src/ file must be reached from a driver
//                       (the files under tools/, bench/, examples/ and
//                       perfbench/) over the quoted-include graph of
//                       analysis_core's index: a header a driver
//                       includes, directly or through reached src/ files,
//                       its same-stem .cc, and a .cc without a same-stem
//                       header (a kernel leg) that includes a reached
//                       file. Tests are not drivers. examples/ and
//                       perfbench/ are read for their includes and
//                       identifiers only.
//   unreached-function  every src/ definition must be reached from a
//                       driver over the same index's functions: the walk
//                       starts from every identifier on the drivers' code
//                       lines, an identifier reaches every src/ function
//                       and #define of that base name, and a reached
//                       definition passes on every identifier from its
//                       name through its body (init lists, and functions
//                       named without being called, count). Names, not
//                       calls, so callbacks and the KernelOps tables are
//                       followed; a shared name can hide a finding, never
//                       add one. A const member defined in its class
//                       whose body is one return statement (an accessor)
//                       is exempt. Both reachability checks run in one
//                       pass over one index.
//
// Any finding can be suppressed with an annotated waiver comment on the
// same or the preceding line (file-scoped for privacy-metering). The
// syntax is `bitpush-lint: allow(<check>): <reason>` inside a // comment;
// the reason string is mandatory. An unreached-function waiver names the
// test that needs the function, as a reference or as a seam into live
// state.
//
// Waivers are counted and printed as a budget so reviewers can watch it.
// Malformed waivers are themselves findings (check name "waiver-syntax"),
// and so are stale ones: a waiver that suppresses no finding of a check
// that ran. Waivers of checks left out of a --checks subset are not
// judged.

#ifndef BITPUSH_TOOLS_BITPUSH_LINT_LINT_H_
#define BITPUSH_TOOLS_BITPUSH_LINT_LINT_H_

#include <string>
#include <vector>

namespace bitpush::lint {

enum class Check {
  kDeterminism,
  kPrivacyMetering,
  kWireExhaustiveness,
  kObsStability,
  kHeaderHygiene,
  kUnreachedModule,
  kUnreachedFunction,
  // Malformed, unknown or stale `bitpush-lint:` annotations. Always
  // enabled; not a check family of its own, it polices the waivers
  // themselves.
  kWaiverSyntax,
};

// Canonical check name as used in waiver comments and --checks.
std::string CheckName(Check check);
// Returns true and sets *out when `name` is a known check name.
bool ParseCheckName(const std::string& name, Check* out);

struct Finding {
  std::string path;  // Relative to the lint root.
  int line = 0;      // 1-based.
  Check check = Check::kDeterminism;
  std::string message;
};

struct Waiver {
  std::string path;
  int line = 0;
  Check check = Check::kDeterminism;
  std::string reason;
};

struct Options {
  // Empty means every check family. "waiver-syntax" is always enabled.
  std::vector<Check> checks;
  // Apply mechanical fixes (include guards, waiver normalization) in
  // place; fixed files are listed in Result::fixed_paths and findings are
  // re-computed on the fixed text.
  bool fix = false;
};

struct Result {
  std::vector<Finding> findings;    // Unsuppressed violations.
  std::vector<Waiver> waivers;      // Every well-formed waiver, stale or not.
  std::vector<std::string> fixed_paths;
  int files_scanned = 0;
  bool io_error = false;
  std::string io_error_message;
};

// Lints every *.h / *.cc under <root>/{src,tests,bench,tools}, and reads
// <root>/{examples,perfbench} for the reachability checks' include graph
// and identifiers. Directories named "golden" are skipped: they hold fixture
// snippets (including the deliberately-broken inputs of tests/golden/lint/)
// that must not count against the real tree. `root` must contain at least
// one of the six directories.
Result RunLint(const std::string& root, const Options& options);

// One "path:line: [check] message" line per finding, sorted by path then
// line, followed by a one-line summary with the waiver budget.
std::string FormatReport(const Result& result);

// One line per waiver: "path:line: allow(check): reason".
std::string FormatWaiverReport(const Result& result);

}  // namespace bitpush::lint

#endif  // BITPUSH_TOOLS_BITPUSH_LINT_LINT_H_
