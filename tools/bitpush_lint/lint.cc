#include "bitpush_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
// GCC 12 reports -Wmaybe-uninitialized inside libstdc++'s std::function
// when std::regex is compiled with the sanitizers on (std_function.h:247
// and :405); the suppression covers the library header alone.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <regex>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis_core/index.h"
#include "analysis_core/source_model.h"

namespace bitpush::lint {
namespace {

namespace fs = std::filesystem;

// The tokenizer/source model is shared with bitpush_analyze
// (tools/analysis_core/); the lint checks operate on its code/comment
// channels unchanged.
using analysis::SourceFile;
using analysis::StartsWith;
using analysis::Trim;

// ---------------------------------------------------------------------------
// Check names.

struct CheckNameEntry {
  Check check;
  const char* name;
};

constexpr CheckNameEntry kCheckNames[] = {
    {Check::kDeterminism, "determinism"},
    {Check::kPrivacyMetering, "privacy-metering"},
    {Check::kWireExhaustiveness, "wire-exhaustiveness"},
    {Check::kObsStability, "obs-stability"},
    {Check::kHeaderHygiene, "header-hygiene"},
    {Check::kUnreachedModule, "unreached-module"},
    {Check::kUnreachedFunction, "unreached-function"},
    {Check::kWaiverSyntax, "waiver-syntax"},
};

// ---------------------------------------------------------------------------
// Wall-clock / ambient-entropy allowlist. Paths are root-relative. Only the
// observability layer (dual sim/wall clocks are its contract — see
// docs/OBSERVABILITY.md) and the bench wall-timing harness qualify today;
// everything else must carry a per-line waiver with a reason.

bool IsWallClockAllowlisted(const std::string& rel_path) {
  return StartsWith(rel_path, "src/obs/") ||
         rel_path == "bench/bench_micro_throughput.cc" ||
         rel_path == "bench/bench_common.cc" || rel_path == "bench/bench_common.h";
}

// ---------------------------------------------------------------------------
// Waivers.

struct ParsedWaivers {
  std::vector<Waiver> waivers;
  std::vector<Finding> syntax_findings;
};

ParsedWaivers ParseWaivers(const SourceFile& file) {
  ParsedWaivers out;
  // The `<marker>: allow(<check>): <reason>` shape is parsed by the shared
  // annotation parser; only the check-name vocabulary is lint's own.
  const analysis::ParsedAnnotations parsed =
      analysis::ParseAnnotations(file, "bitpush-lint");
  for (const analysis::MalformedAnnotation& bad : parsed.malformed) {
    if (bad.missing_reason) {
      out.syntax_findings.push_back(
          {file.rel_path, bad.line, Check::kWaiverSyntax,
           "waiver for `" + bad.check_name +
               "` is missing its reason string"});
    } else {
      out.syntax_findings.push_back(
          {file.rel_path, bad.line, Check::kWaiverSyntax,
           "malformed bitpush-lint annotation; expected "
           "`// bitpush-lint: allow(<check>): <reason>`"});
    }
  }
  for (const analysis::Annotation& annotation : parsed.annotations) {
    Check check;
    if (!ParseCheckName(annotation.check_name, &check) ||
        check == Check::kWaiverSyntax) {
      out.syntax_findings.push_back(
          {file.rel_path, annotation.line, Check::kWaiverSyntax,
           "unknown lint check `" + annotation.check_name + "` in waiver"});
      continue;
    }
    out.waivers.push_back(
        {file.rel_path, annotation.line, check, annotation.reason});
  }
  return out;
}

// A waiver on line L suppresses findings of its check on lines L and L+1
// of the same file. privacy-metering is a whole-TU property, so its
// waivers are file-scoped.
bool Suppresses(const Waiver& waiver, const Finding& finding) {
  if (waiver.check != finding.check || waiver.path != finding.path) {
    return false;
  }
  return finding.check == Check::kPrivacyMetering ||
         finding.line == waiver.line || finding.line == waiver.line + 1;
}

// ---------------------------------------------------------------------------
// determinism: ambient entropy and wall clocks are banned so that every
// campaign replays byte-identically from its 64-bit seed (the crash
// recovery layer depends on this — docs/PERSISTENCE.md).

struct TokenRule {
  const char* pattern;
  const char* message;
};

void CheckDeterminism(const SourceFile& file, std::vector<Finding>* findings) {
  if (IsWallClockAllowlisted(file.rel_path)) return;
  static const std::vector<std::pair<std::regex, std::string>>* kRules = [] {
    auto* rules = new std::vector<std::pair<std::regex, std::string>>;
    const TokenRule raw[] = {
        {R"(std\s*::\s*random_device)",
         "std::random_device injects ambient entropy; seed a bitpush::Rng "
         "and Fork() it instead"},
        {R"(std\s*::\s*s?rand\b)",
         "std::rand/std::srand use hidden global state; use bitpush::Rng"},
        {R"(\btime\s*\()",
         "time() reads the wall clock; derive simulated time from the "
         "LatencyModel clock"},
        {R"(\b(system_clock|steady_clock|high_resolution_clock)\b)",
         "wall clocks are banned outside src/obs/ and the bench timing "
         "harness; campaigns must replay from their seed"},
        {R"(std\s*::\s*(mt19937(_64)?|default_random_engine|minstd_rand0?|ranlux\w+|knuth_b)\b)",
         "standard RNG engines bypass the seeded bitpush::Rng fork "
         "discipline"},
    };
    for (const TokenRule& rule : raw) {
      rules->emplace_back(std::regex(rule.pattern), rule.message);
    }
    return rules;
  }();
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    for (const auto& [re, message] : *kRules) {
      if (std::regex_search(file.code_lines[i], re)) {
        findings->push_back({file.rel_path, static_cast<int>(i + 1),
                             Check::kDeterminism, message});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// privacy-metering: a translation unit that constructs or serializes client
// bit reports is a disclosure site (paper §1.1: every disclosed bit must be
// charged to the meter). Such a TU must reference the PrivacyMeter charge
// path, or explain itself in a waiver.

void CheckPrivacyMetering(const SourceFile& file,
                          std::vector<Finding>* findings) {
  if (file.is_header) return;
  static const std::regex kDisclosureRe(
      R"(\bEncodeBitReport\s*\(|\bBitReport\s*\{)");
  static const std::regex kChargePathRe(R"(\b(TryChargeBit|PrivacyMeter)\b)");
  static const std::regex kLocalMeterRe(R"(\blocal_meter\b)");
  static const std::regex kChargeCallRe(R"(\bTryChargeBit\b)");

  // The shard layer splits the privacy ledger per failure domain
  // (docs/SHARDING.md): a shard TU that discloses bits must charge its own
  // shard-local meter (local_meter), and the merge tier — which only
  // combines tallies the shards already metered — must never charge a
  // meter at all (that would be cross-shard double metering).
  const bool shard_tu = StartsWith(file.rel_path, "src/federated/shard/");
  const bool merge_tu =
      shard_tu && file.rel_path.find("merge") != std::string::npos;

  int first_line = 0;
  int charge_line = 0;
  bool charges = false;
  bool shard_local = false;
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& code = file.code_lines[i];
    if (first_line == 0 && std::regex_search(code, kDisclosureRe)) {
      first_line = static_cast<int>(i + 1);
    }
    if (!charges && std::regex_search(code, kChargePathRe)) charges = true;
    if (!shard_local && std::regex_search(code, kLocalMeterRe)) {
      shard_local = true;
    }
    if (charge_line == 0 && std::regex_search(code, kChargeCallRe)) {
      charge_line = static_cast<int>(i + 1);
    }
  }

  if (merge_tu && charge_line != 0) {
    findings->push_back(
        {file.rel_path, charge_line, Check::kPrivacyMetering,
         "the shard merge tier combines tallies already charged to each "
         "shard's local meter; charging again here double-meters across "
         "shards"});
  }
  if (first_line == 0) return;
  if (shard_tu) {
    // Inside the shard layer a generic PrivacyMeter reference is not
    // enough: the disclosure must be charged to the shard-local ledger.
    if (!shard_local) {
      findings->push_back(
          {file.rel_path, first_line, Check::kPrivacyMetering,
           "shard translation unit constructs or serializes client bit "
           "reports but never references the shard-local meter "
           "(local_meter) charge path"});
    }
    return;
  }
  if (!charges) {
    findings->push_back(
        {file.rel_path, first_line, Check::kPrivacyMetering,
         "translation unit constructs or serializes client bit reports but "
         "never references the PrivacyMeter::TryChargeBit charge path"});
  }
}

// ---------------------------------------------------------------------------
// obs-stability: instruments tagged Determinism::kStable feed the
// deterministic metrics snapshot, and kStable flight-recorder events feed
// the deterministic events snapshot — both must be byte-identical across
// reruns and crash recovery. A file that is allowed to touch wall clocks
// (allowlisted or waived) therefore may not register kStable instruments
// or emit kStable events.

void CheckObsStability(const SourceFile& file,
                       const std::vector<Waiver>& waivers,
                       std::vector<Finding>* findings) {
  bool wall_clock_capable = IsWallClockAllowlisted(file.rel_path);
  for (const Waiver& waiver : waivers) {
    if (waiver.path == file.rel_path && waiver.check == Check::kDeterminism) {
      wall_clock_capable = true;
      break;
    }
  }
  if (!wall_clock_capable) return;
  static const std::regex kRegisterRe(
      R"((Get(Counter|Gauge|Histogram)|EmitEvent)\s*\()");
  static const std::regex kStableRe(R"(\bkStable\b)");
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    if (!std::regex_search(file.code_lines[i], kRegisterRe)) continue;
    // Scan the registration/emission statement (to the terminating ';',
    // capped).
    for (size_t j = i; j < file.code_lines.size() && j < i + 10; ++j) {
      if (std::regex_search(file.code_lines[j], kStableRe)) {
        findings->push_back(
            {file.rel_path, static_cast<int>(i + 1), Check::kObsStability,
             "file is allowed to touch wall clocks, so it may not register "
             "Determinism::kStable instruments or emit kStable events (tag "
             "it kVolatile or move the instrumentation)"});
        break;
      }
      if (file.code_lines[j].find(';') != std::string::npos) break;
    }
  }
}

// ---------------------------------------------------------------------------
// header-hygiene.

std::string ExpectedGuard(const std::string& rel_path) {
  std::string stem = rel_path;
  if (StartsWith(stem, "src/")) stem = stem.substr(4);
  const size_t dot = stem.rfind('.');
  if (dot != std::string::npos) stem = stem.substr(0, dot);
  std::string guard = "BITPUSH_";
  for (const char c : stem) {
    guard.push_back(std::isalnum(static_cast<unsigned char>(c))
                        ? static_cast<char>(std::toupper(
                              static_cast<unsigned char>(c)))
                        : '_');
  }
  guard += "_H_";
  return guard;
}

// The std vocabulary types a header must include directly rather than
// lean on transitive includes for (a pragmatic
// include-what-you-use subset; extend as the tree grows).
const std::vector<std::pair<std::regex, std::string>>& SelfContainmentMap() {
  static const auto* map = [] {
    auto* m = new std::vector<std::pair<std::regex, std::string>>;
    const std::pair<const char*, const char*> raw[] = {
        {R"(\bstd\s*::\s*string\b)", "string"},
        {R"(\bstd\s*::\s*string_view\b)", "string_view"},
        {R"(\bstd\s*::\s*vector\b)", "vector"},
        {R"(\bstd\s*::\s*optional\b)", "optional"},
        {R"(\bstd\s*::\s*unordered_map\b)", "unordered_map"},
        {R"(\bstd\s*::\s*unordered_set\b)", "unordered_set"},
        {R"(\bstd\s*::\s*map\b|\bstd\s*::\s*multimap\b)", "map"},
        {R"(\bstd\s*::\s*function\b)", "functional"},
        {R"(\bstd\s*::\s*atomic\b)", "atomic"},
        {R"(\bstd\s*::\s*(mutex|lock_guard|unique_lock|scoped_lock)\b)",
         "mutex"},
        {R"(\bstd\s*::\s*(unique_ptr|shared_ptr|weak_ptr)\b)", "memory"},
        {R"(\bstd\s*::\s*(pair|tuple)\b)", ""},  // pair -> utility, tuple -> tuple
        {R"(\b(u?int(8|16|32|64)_t)\b)", "cstdint"},
        {R"(\bstd\s*::\s*FILE\b)", "cstdio"},
        {R"(\bstd\s*::\s*thread\b)", "thread"},
        {R"(\bstd\s*::\s*array\b)", "array"},
        {R"(\bstd\s*::\s*deque\b)", "deque"},
        {R"(\bstd\s*::\s*variant\b)", "variant"},
        {R"(\bstd\s*::\s*filesystem\b)", "filesystem"},
    };
    for (const auto& [pattern, header] : raw) {
      if (header[0] == '\0') continue;  // handled specially below
      m->emplace_back(std::regex(pattern), header);
    }
    m->emplace_back(std::regex(R"(\bstd\s*::\s*pair\b)"), "utility");
    m->emplace_back(std::regex(R"(\bstd\s*::\s*tuple\b)"), "tuple");
    return m;
  }();
  return *map;
}

struct GuardInfo {
  int ifndef_line = 0;  // 1-based; 0 if absent.
  int define_line = 0;
  int endif_line = 0;
  std::string guard_name;
};

GuardInfo FindGuard(const SourceFile& file) {
  GuardInfo info;
  static const std::regex kIfndefRe(R"(^\s*#\s*ifndef\s+([A-Za-z0-9_]+))");
  static const std::regex kDefineRe(R"(^\s*#\s*define\s+([A-Za-z0-9_]+))");
  static const std::regex kEndifRe(R"(^\s*#\s*endif\b)");
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    std::smatch match;
    if (info.ifndef_line == 0 &&
        std::regex_search(file.code_lines[i], match, kIfndefRe)) {
      info.ifndef_line = static_cast<int>(i + 1);
      info.guard_name = match[1].str();
      if (i + 1 < file.code_lines.size() &&
          std::regex_search(file.code_lines[i + 1], match, kDefineRe) &&
          match[1].str() == info.guard_name) {
        info.define_line = static_cast<int>(i + 2);
      }
      break;
    }
    // Any other preprocessor or code before the guard means no guard-first
    // layout; stop at the first non-blank code line.
    if (!Trim(file.code_lines[i]).empty()) break;
  }
  for (size_t i = file.code_lines.size(); i > 0; --i) {
    if (std::regex_search(file.code_lines[i - 1], kEndifRe)) {
      info.endif_line = static_cast<int>(i);
      break;
    }
    if (!Trim(file.code_lines[i - 1]).empty()) break;
  }
  return info;
}

void CheckHeaderHygiene(const SourceFile& file,
                        std::vector<Finding>* findings) {
  // SIMD intrinsics headers are a kernel implementation detail: the rest
  // of the tree reaches vector code only through the runtime-dispatched
  // kernels::KernelOps table (src/kernels/kernels.h), so direct includes
  // of the <immintrin.h> family are confined to src/kernels/. This rule
  // scans .cc files too, unlike the guard/self-containment rules below.
  static const std::regex kIntrinsicsIncludeRe(
      R"(^\s*#\s*include\s*[<"]([A-Za-z0-9_]*intrin\.h|arm_(?:neon|sve|acle)\.h)[>"])");
  if (!StartsWith(file.rel_path, "src/kernels/")) {
    for (size_t i = 0; i < file.code_lines.size(); ++i) {
      std::smatch match;
      if (std::regex_search(file.code_lines[i], match,
                            kIntrinsicsIncludeRe)) {
        findings->push_back(
            {file.rel_path, static_cast<int>(i + 1), Check::kHeaderHygiene,
             "SIMD intrinsics header <" + match[1].str() +
                 "> may only be included under src/kernels/; go through "
                 "the kernels::KernelOps dispatch table instead"});
      }
    }
  }
  if (!file.is_header) return;
  const std::string expected = ExpectedGuard(file.rel_path);
  const GuardInfo guard = FindGuard(file);
  if (guard.ifndef_line == 0 || guard.define_line == 0) {
    findings->push_back(
        {file.rel_path, 1, Check::kHeaderHygiene,
         "missing canonical include guard (#ifndef " + expected +
             " / #define " + expected + " before any other code)"});
  } else if (guard.guard_name != expected) {
    findings->push_back({file.rel_path, guard.ifndef_line,
                         Check::kHeaderHygiene,
                         "include guard `" + guard.guard_name +
                             "` should be `" + expected + "`"});
  } else if (guard.endif_line != 0) {
    const std::string& comment = file.comment_lines[guard.endif_line - 1];
    if (comment.find(expected) == std::string::npos) {
      findings->push_back(
          {file.rel_path, guard.endif_line, Check::kHeaderHygiene,
           "closing #endif should carry the guard comment `// " + expected +
               "`"});
    }
  }

  static const std::regex kUsingNamespaceRe(R"(\busing\s+namespace\b)");
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    if (std::regex_search(file.code_lines[i], kUsingNamespaceRe)) {
      findings->push_back(
          {file.rel_path, static_cast<int>(i + 1), Check::kHeaderHygiene,
           "`using namespace` in a header leaks into every includer"});
    }
  }

  // Self-containment: vocabulary std types must be included directly.
  std::set<std::string> included;
  static const std::regex kIncludeRe(R"(^\s*#\s*include\s*[<"]([^>"]+)[>"])");
  for (const std::string& code : file.code_lines) {
    std::smatch match;
    if (std::regex_search(code, match, kIncludeRe)) {
      included.insert(match[1].str());
    }
  }
  std::set<std::string> reported;
  for (size_t i = 0; i < file.code_lines.size(); ++i) {
    for (const auto& [re, header] : SelfContainmentMap()) {
      if (included.count(header) > 0 || reported.count(header) > 0) continue;
      if (std::regex_search(file.code_lines[i], re)) {
        reported.insert(header);
        findings->push_back(
            {file.rel_path, static_cast<int>(i + 1), Check::kHeaderHygiene,
             "header uses a std type from <" + header +
                 "> without including it directly (self-containment)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// wire-exhaustiveness: cross-file. Harvest frame-kind enumerators and
// Encode/Decode message pairs from the format-defining headers, then
// require (a) pairing, (b) a library reference for every enumerator, and
// (c) fuzz/golden-test coverage for every enumerator and message.

struct WireDecl {
  std::string header;  // rel path
  int line = 0;
  std::string name;  // enumerator "Type::kX" or message stem "BitReport"
};

struct WireInventory {
  std::vector<WireDecl> enumerators;   // qualified Type::kX
  std::vector<WireDecl> encode_decls;  // message stems with Encode in header
  std::vector<WireDecl> decode_decls;  // message stems with Decode in header
  std::vector<WireDecl> version_consts;  // k*Version wire-section constants
};

const char* const kWireHeaders[] = {"src/federated/wire.h",
                                    "src/persist/journal.h",
                                    "src/federated/shard/merge.h"};

bool IsWireHeader(const std::string& rel_path) {
  for (const char* header : kWireHeaders) {
    if (rel_path == header) return true;
  }
  return false;
}

WireInventory HarvestWireDecls(const std::vector<SourceFile>& files) {
  WireInventory inventory;
  static const std::regex kEnumRe(
      R"(^\s*enum\s+class\s+([A-Za-z0-9_]+))");
  // Enumerators at line start (multi-line enums) or after the opening
  // brace / a comma (single-line enums such as merge.h's nested Status).
  static const std::regex kEnumeratorRe(R"((^|[{,])\s*(k[A-Za-z0-9_]+)\b)");
  static const std::regex kFnRe(
      R"(\b(Encode|Decode)([A-Za-z0-9_]+)\s*\()");
  // Wire-section version constants (kWireFormatVersion,
  // kTraceContextVersion, ...): sub-version bytes decoders fail closed on.
  static const std::regex kVersionConstRe(
      R"(^\s*(inline\s+)?constexpr\s+[A-Za-z0-9_:<>\s]+\b(k[A-Za-z0-9_]*Version)\s*=)");
  for (const SourceFile& file : files) {
    if (!IsWireHeader(file.rel_path)) continue;
    std::string enum_name;
    bool in_enum = false;
    // Brace depth at the start of each line: only enums declared at
    // namespace scope (depth <= 1) are wire enums. Nested helper enums —
    // e.g. MergedQueryResult::Status in merge.h, which never crosses the
    // wire as an enumerator section — are not harvested.
    int depth = 0;
    for (size_t i = 0; i < file.code_lines.size(); ++i) {
      const std::string& code = file.code_lines[i];
      const int line_start_depth = depth;
      for (const char c : code) {
        if (c == '{') ++depth;
        if (c == '}' && depth > 0) --depth;
      }
      std::smatch match;
      if (!in_enum && line_start_depth <= 1 &&
          std::regex_search(code, match, kEnumRe)) {
        enum_name = match[1].str();
        in_enum = true;
      }
      if (in_enum) {
        auto it = std::sregex_iterator(code.begin(), code.end(),
                                       kEnumeratorRe);
        for (; it != std::sregex_iterator(); ++it) {
          inventory.enumerators.push_back(
              {file.rel_path, static_cast<int>(i + 1),
               enum_name + "::" + (*it)[2].str()});
        }
      }
      if (in_enum && code.find("};") != std::string::npos) in_enum = false;
      if (line_start_depth <= 1 &&
          std::regex_search(code, match, kVersionConstRe)) {
        inventory.version_consts.push_back(
            {file.rel_path, static_cast<int>(i + 1), match[2].str()});
      }
      std::string rest = code;
      while (std::regex_search(rest, match, kFnRe)) {
        WireDecl decl{file.rel_path, static_cast<int>(i + 1),
                      match[2].str()};
        if (match[1].str() == "Encode") {
          inventory.encode_decls.push_back(decl);
        } else {
          inventory.decode_decls.push_back(decl);
        }
        rest = match.suffix().str();
      }
    }
  }
  return inventory;
}

bool IsFuzzOrGoldenTest(const SourceFile& file) {
  if (!StartsWith(file.rel_path, "tests/")) return false;
  if (file.rel_path.find("fuzz") != std::string::npos) return true;
  for (const std::string& raw : file.raw_lines) {
    if (raw.find("golden") != std::string::npos) return true;
  }
  return false;
}

void CheckWireExhaustiveness(const std::vector<SourceFile>& files,
                             std::vector<Finding>* findings) {
  const WireInventory inventory = HarvestWireDecls(files);
  if (inventory.enumerators.empty() && inventory.encode_decls.empty() &&
      inventory.version_consts.empty()) {
    return;
  }

  std::string library_code;   // src/**/*.cc
  std::string coverage_code;  // fuzz/golden tests
  for (const SourceFile& file : files) {
    const bool library =
        StartsWith(file.rel_path, "src/") && !file.is_header;
    const bool coverage = IsFuzzOrGoldenTest(file);
    if (!library && !coverage) continue;
    for (const std::string& code : file.code_lines) {
      if (library) {
        library_code += code;
        library_code += '\n';
      }
      if (coverage) {
        coverage_code += code;
        coverage_code += '\n';
      }
    }
  }

  const auto contains_token = [](const std::string& haystack,
                                 const std::string& token) {
    const std::regex re("\\b" + token + "\\b");
    return std::regex_search(haystack, re);
  };

  std::set<std::string> encode_names;
  std::set<std::string> decode_names;
  for (const WireDecl& decl : inventory.encode_decls) {
    encode_names.insert(decl.name);
  }
  for (const WireDecl& decl : inventory.decode_decls) {
    decode_names.insert(decl.name);
  }

  for (const WireDecl& decl : inventory.encode_decls) {
    if (decode_names.count(decl.name) == 0) {
      findings->push_back({decl.header, decl.line, Check::kWireExhaustiveness,
                           "Encode" + decl.name +
                               " has no matching Decode" + decl.name +
                               " declared in the same format header"});
    }
    if (!contains_token(coverage_code, "Encode" + decl.name) &&
        !contains_token(coverage_code, "Decode" + decl.name)) {
      findings->push_back(
          {decl.header, decl.line, Check::kWireExhaustiveness,
           "wire message " + decl.name +
               " is never exercised by a fuzz or golden test under tests/"});
    }
  }
  for (const WireDecl& decl : inventory.decode_decls) {
    if (encode_names.count(decl.name) == 0) {
      findings->push_back({decl.header, decl.line, Check::kWireExhaustiveness,
                           "Decode" + decl.name +
                               " has no matching Encode" + decl.name +
                               " declared in the same format header"});
    }
  }

  for (const WireDecl& decl : inventory.enumerators) {
    const size_t sep = decl.name.find("::");
    const std::string bare = decl.name.substr(sep + 2);
    // kRoundClosed -> RoundClosedRecord payload codec, when one exists.
    const std::string stem = bare.substr(1) + "Record";
    const bool has_payload_codec = encode_names.count(stem) > 0;
    if (!contains_token(library_code, decl.name)) {
      findings->push_back(
          {decl.header, decl.line, Check::kWireExhaustiveness,
           "enumerator " + decl.name +
               " is never referenced by an encode/decode path in src/"});
    }
    if (has_payload_codec && decode_names.count(stem) == 0) {
      findings->push_back({decl.header, decl.line, Check::kWireExhaustiveness,
                           "record payload " + stem + " can Encode but not " +
                               "Decode; recovery would fail closed on it"});
    }
    if (!contains_token(coverage_code, decl.name) &&
        !contains_token(coverage_code, bare) &&
        !(has_payload_codec &&
          (contains_token(coverage_code, "Encode" + stem) ||
           contains_token(coverage_code, "Decode" + stem)))) {
      findings->push_back(
          {decl.header, decl.line, Check::kWireExhaustiveness,
           "enumerator " + decl.name +
               " is never exercised by a fuzz or golden test under tests/"});
    }
  }

  // Wire-section version constants: decoders fail closed on an unknown
  // version byte, so the constant must actually gate a codec path in the
  // library AND a fuzz/golden test must prove the fail-closed behavior by
  // naming it (typically via a version-byte mutation case).
  for (const WireDecl& decl : inventory.version_consts) {
    if (!contains_token(library_code, decl.name)) {
      findings->push_back(
          {decl.header, decl.line, Check::kWireExhaustiveness,
           "wire-section version constant " + decl.name +
               " is never referenced by an encode/decode path in src/"});
    }
    if (!contains_token(coverage_code, decl.name)) {
      findings->push_back(
          {decl.header, decl.line, Check::kWireExhaustiveness,
           "wire-section version constant " + decl.name +
               " is never exercised by a fuzz or golden test under tests/ "
               "(mutate the version byte and require fail-closed decoding)"});
    }
  }
}

// ---------------------------------------------------------------------------
// unreached-module: every src/ file must be reached from a driver — the
// files under tools/, bench/, examples/ and perfbench/ that reproduce the
// paper — over the quoted-include graph. A file reached only by its own
// tests is code no live path runs.

// Read only for their includes: the drivers the other checks do not cover.
bool IsIncludeOnly(const std::string& rel_path) {
  return StartsWith(rel_path, "examples/") ||
         StartsWith(rel_path, "perfbench/");
}

bool IsDriver(const std::string& rel_path) {
  return StartsWith(rel_path, "tools/") || StartsWith(rel_path, "bench/") ||
         IsIncludeOnly(rel_path);
}

// `index` holds the linted tree plus the include-only drivers. A src/ file
// is reached when a driver includes it, directly or through reached src/
// files; a reached header brings its same-stem .cc along, and a .cc with
// no same-stem header (a kernel leg) is reached when it includes a reached
// file.
void CheckUnreachedModules(const analysis::Index& index,
                           std::vector<Finding>* findings) {
  const int n = static_cast<int>(index.files.size());
  std::map<std::string, int> by_path;
  for (int i = 0; i < n; ++i) by_path[index.files[i].rel_path] = i;
  // The same-stem sibling of a src/ file (.h <-> .cc), or -1.
  std::vector<int> sibling(n, -1);
  for (int i = 0; i < n; ++i) {
    const std::string& path = index.files[i].rel_path;
    if (!StartsWith(path, "src/")) continue;
    const std::string stem = path.substr(0, path.rfind('.'));
    const auto it =
        by_path.find(stem + (index.files[i].is_header ? ".cc" : ".h"));
    if (it != by_path.end()) sibling[i] = it->second;
  }

  std::vector<bool> reached(n, false);
  std::vector<int> pending;
  const auto reach = [&](int i) {
    if (reached[i]) return;
    reached[i] = true;
    pending.push_back(i);
  };
  for (int i = 0; i < n; ++i) {
    if (IsDriver(index.files[i].rel_path)) reach(i);
  }
  bool grew = true;
  while (grew) {
    while (!pending.empty()) {
      const int at = pending.back();
      pending.pop_back();
      for (const int next : index.reachable[at]) {
        reach(next);
        if (index.files[next].is_header && sibling[next] >= 0) {
          reach(sibling[next]);
        }
      }
    }
    grew = false;
    for (int i = 0; i < n; ++i) {
      const SourceFile& file = index.files[i];
      if (reached[i] || file.is_header || sibling[i] >= 0 ||
          !StartsWith(file.rel_path, "src/")) {
        continue;
      }
      for (const int included : index.reachable[i]) {
        if (included != i && reached[included]) {
          reach(i);
          grew = true;
          break;
        }
      }
    }
  }

  for (int i = 0; i < n; ++i) {
    const SourceFile& file = index.files[i];
    if (reached[i] || !StartsWith(file.rel_path, "src/")) continue;
    std::string message;
    if (file.is_header) {
      message = "no driver (tools/, bench/, examples/, perfbench/) includes "
                "this header, directly or through src/; give it a live "
                "caller or delete it";
    } else if (sibling[i] >= 0) {
      message = "its header " + index.files[sibling[i]].rel_path +
                " is reached by no driver";
    } else {
      message = "includes no file a driver reaches";
    }
    findings->push_back(
        {file.rel_path, 1, Check::kUnreachedModule, std::move(message)});
  }
}

// ---------------------------------------------------------------------------
// unreached-function: every src/ definition must be reached from a driver.
// The walk starts from every identifier on the code lines of the driver
// files, and an identifier reaches every src/ definition with that base
// name: the functions of the index, and the macros whose #define bodies
// name functions (BITPUSH_CHECK names CheckFailureStream). A reached
// definition's lines, from its name through its body, carry the walk on,
// so constructor init lists count. Matching names rather than calls
// follows callbacks and the KernelOps tables, which name functions without
// calling them, and overrides of a reached name; a name shared by a
// reached and an unreached definition can hide a finding, never add one.

// A span of lines whose identifiers a reached definition passes on.
struct WalkNode {
  int file_index = -1;
  int first_line = 0;  // 1-based, inclusive.
  int last_line = 0;
  int function_index = -1;  // Into Index::functions; -1 for a macro.
};

template <typename Visit>
void ForEachIdentifier(const std::string& code, const Visit& visit) {
  size_t i = 0;
  while (i < code.size()) {
    const unsigned char c = static_cast<unsigned char>(code[i]);
    if (!std::isalnum(c) && c != '_') {
      ++i;
      continue;
    }
    size_t end = i;
    while (end < code.size() &&
           (std::isalnum(static_cast<unsigned char>(code[end])) ||
            code[end] == '_')) {
      ++end;
    }
    if (!std::isdigit(c)) visit(std::string_view(code).substr(i, end - i));
    i = end;
  }
}

// A const member function defined in its class whose body is one return
// statement: the read-only accessors tests observe state through.
bool IsInClassAccessor(const analysis::FunctionDef& fn) {
  return fn.qual_name.find("::") == std::string::npos &&
         (fn.trailer == "const" || StartsWith(fn.trailer, "const ")) &&
         fn.statements.size() == 1 &&
         StartsWith(fn.statements[0].text, "return ");
}

void CheckUnreachedFunctions(const analysis::Index& index,
                             std::vector<Finding>* findings) {
  std::vector<WalkNode> nodes;
  std::map<std::string, std::vector<int>, std::less<>> by_name;
  for (size_t fi = 0; fi < index.functions.size(); ++fi) {
    const analysis::FunctionDef& fn = index.functions[fi];
    if (!StartsWith(index.files[fn.file_index].rel_path, "src/")) continue;
    by_name[fn.base_name].push_back(static_cast<int>(nodes.size()));
    nodes.push_back({fn.file_index, fn.name_line, fn.end_line,
                     static_cast<int>(fi)});
  }
  static const std::regex kDefineRe(R"(^\s*#\s*define\s+([A-Za-z_]\w*))");
  for (size_t f = 0; f < index.files.size(); ++f) {
    const SourceFile& file = index.files[f];
    if (!StartsWith(file.rel_path, "src/")) continue;
    for (size_t i = 0; i < file.code_lines.size(); ++i) {
      std::smatch match;
      if (file.code_lines[i].find("define") == std::string::npos ||
          !std::regex_search(file.code_lines[i], match, kDefineRe)) {
        continue;
      }
      size_t last = i;
      while (last + 1 < file.code_lines.size() &&
             !Trim(file.code_lines[last]).empty() &&
             Trim(file.code_lines[last]).back() == '\\') {
        ++last;
      }
      by_name[match[1].str()].push_back(static_cast<int>(nodes.size()));
      nodes.push_back({static_cast<int>(f), static_cast<int>(i + 1),
                       static_cast<int>(last + 1), -1});
    }
  }

  std::vector<bool> reached(nodes.size(), false);
  std::set<std::string, std::less<>> seen;
  std::vector<std::string> pending;
  const auto visit_line = [&](const std::string& code) {
    ForEachIdentifier(code, [&](std::string_view name) {
      if (by_name.find(name) == by_name.end()) return;
      if (seen.emplace(name).second) pending.emplace_back(name);
    });
  };
  for (const SourceFile& file : index.files) {
    if (!IsDriver(file.rel_path)) continue;
    for (const std::string& code : file.code_lines) visit_line(code);
  }
  while (!pending.empty()) {
    const std::string name = std::move(pending.back());
    pending.pop_back();
    for (const int node_index : by_name.find(name)->second) {
      if (reached[node_index]) continue;
      reached[node_index] = true;
      const WalkNode& node = nodes[node_index];
      const SourceFile& file = index.files[node.file_index];
      for (int line = node.first_line; line <= node.last_line; ++line) {
        visit_line(file.code_lines[line - 1]);
      }
    }
  }

  for (size_t n = 0; n < nodes.size(); ++n) {
    if (reached[n] || nodes[n].function_index < 0) continue;
    const analysis::FunctionDef& fn = index.functions[nodes[n].function_index];
    if (IsInClassAccessor(fn)) continue;
    findings->push_back(
        {index.files[fn.file_index].rel_path, fn.name_line,
         Check::kUnreachedFunction,
         "no driver (tools/, bench/, examples/, perfbench/) reaches `" +
             fn.qual_name +
             "`, directly or through src/; delete it with its tests, or "
             "waive it naming the test that needs it"});
  }
}

// ---------------------------------------------------------------------------
// Mechanical fixes: canonical include guards and waiver normalization.

bool FixFile(SourceFile* file) {
  bool changed = false;
  const std::string expected = ExpectedGuard(file->rel_path);
  if (file->is_header) {
    const GuardInfo guard = FindGuard(*file);
    if (guard.ifndef_line != 0 && guard.define_line != 0 &&
        guard.guard_name != expected) {
      file->raw_lines[guard.ifndef_line - 1] = "#ifndef " + expected;
      file->raw_lines[guard.define_line - 1] = "#define " + expected;
      if (guard.endif_line != 0) {
        file->raw_lines[guard.endif_line - 1] = "#endif  // " + expected;
      }
      changed = true;
    } else if (guard.ifndef_line != 0 && guard.guard_name == expected &&
               guard.endif_line != 0) {
      const std::string canonical_endif = "#endif  // " + expected;
      if (Trim(file->raw_lines[guard.endif_line - 1]) !=
          Trim(canonical_endif)) {
        file->raw_lines[guard.endif_line - 1] = canonical_endif;
        changed = true;
      }
    }
  }
  // Normalize waiver spacing to the canonical form.
  static const std::regex kSloppyWaiverRe(
      R"(//\s*bitpush-lint:\s*allow\(\s*([A-Za-z0-9_-]+)\s*\)\s*:\s*(.+?)\s*$)");
  for (std::string& line : file->raw_lines) {
    std::smatch match;
    if (std::regex_search(line, match, kSloppyWaiverRe)) {
      const std::string canonical = "// bitpush-lint: allow(" +
                                    match[1].str() + "): " +
                                    Trim(match[2].str());
      const std::string current = line.substr(match.position(0));
      if (current != canonical) {
        line = line.substr(0, match.position(0)) + canonical;
        changed = true;
      }
    }
  }
  return changed;
}

// ---------------------------------------------------------------------------
// Driver.

bool CheckEnabled(const Options& options, Check check) {
  if (check == Check::kWaiverSyntax) return true;
  if (options.checks.empty()) return true;
  return std::find(options.checks.begin(), options.checks.end(), check) !=
         options.checks.end();
}

}  // namespace

std::string CheckName(Check check) {
  for (const CheckNameEntry& entry : kCheckNames) {
    if (entry.check == check) return entry.name;
  }
  return "unknown";
}

bool ParseCheckName(const std::string& name, Check* out) {
  for (const CheckNameEntry& entry : kCheckNames) {
    if (name == entry.name) {
      *out = entry.check;
      return true;
    }
  }
  return false;
}

Result RunLint(const std::string& root, const Options& options) {
  Result result;
  analysis::TreeLoadResult tree = analysis::LoadTree(
      root, {"src", "tests", "bench", "tools", "examples", "perfbench"});
  if (tree.io_error) {
    result.io_error = true;
    result.io_error_message = std::move(tree.io_error_message);
    return result;
  }
  std::vector<SourceFile> files;
  std::vector<SourceFile> include_only;
  for (SourceFile& file : tree.files) {
    (IsIncludeOnly(file.rel_path) ? include_only : files)
        .push_back(std::move(file));
  }
  result.files_scanned = static_cast<int>(files.size());

  if (options.fix) {
    for (SourceFile& file : files) {
      if (!FixFile(&file)) continue;
      std::ofstream out(file.abs_path, std::ios::binary | std::ios::trunc);
      if (!out) {
        result.io_error = true;
        result.io_error_message = "cannot write " + file.abs_path;
        return result;
      }
      for (const std::string& line : file.raw_lines) out << line << '\n';
      out.close();
      analysis::Relex(&file);
      result.fixed_paths.push_back(file.rel_path);
    }
  }

  std::vector<Finding> raw_findings;
  std::vector<Waiver> all_waivers;
  for (const SourceFile& file : files) {
    ParsedWaivers parsed = ParseWaivers(file);
    for (Finding& finding : parsed.syntax_findings) {
      raw_findings.push_back(std::move(finding));
    }
    for (Waiver& waiver : parsed.waivers) {
      all_waivers.push_back(std::move(waiver));
    }
  }
  for (const SourceFile& file : files) {
    if (CheckEnabled(options, Check::kDeterminism)) {
      CheckDeterminism(file, &raw_findings);
    }
    if (CheckEnabled(options, Check::kPrivacyMetering)) {
      CheckPrivacyMetering(file, &raw_findings);
    }
    if (CheckEnabled(options, Check::kObsStability)) {
      CheckObsStability(file, all_waivers, &raw_findings);
    }
    if (CheckEnabled(options, Check::kHeaderHygiene)) {
      CheckHeaderHygiene(file, &raw_findings);
    }
  }
  if (CheckEnabled(options, Check::kWireExhaustiveness)) {
    CheckWireExhaustiveness(files, &raw_findings);
  }
  // Both reachability checks walk one index of the linted tree plus the
  // include-only drivers; nothing reads `files` after this.
  const bool modules = CheckEnabled(options, Check::kUnreachedModule);
  const bool functions = CheckEnabled(options, Check::kUnreachedFunction);
  if (modules || functions) {
    std::move(include_only.begin(), include_only.end(),
              std::back_inserter(files));
    const analysis::Index index = analysis::BuildIndex(std::move(files));
    if (modules) CheckUnreachedModules(index, &raw_findings);
    if (functions) CheckUnreachedFunctions(index, &raw_findings);
  }

  // A waiver that suppresses no finding of a check that ran is stale.
  std::vector<bool> used(all_waivers.size(), false);
  for (Finding& finding : raw_findings) {
    bool suppressed = false;
    for (size_t w = 0; w < all_waivers.size(); ++w) {
      if (!Suppresses(all_waivers[w], finding)) continue;
      used[w] = true;
      suppressed = true;
    }
    if (!suppressed) result.findings.push_back(std::move(finding));
  }
  for (size_t w = 0; w < all_waivers.size(); ++w) {
    const Waiver& waiver = all_waivers[w];
    if (used[w] || !CheckEnabled(options, waiver.check)) continue;
    result.findings.push_back(
        {waiver.path, waiver.line, Check::kWaiverSyntax,
         "waiver for `" + CheckName(waiver.check) +
             "` suppresses no finding; delete it"});
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return CheckName(a.check) < CheckName(b.check);
            });
  result.waivers = std::move(all_waivers);
  std::sort(result.waivers.begin(), result.waivers.end(),
            [](const Waiver& a, const Waiver& b) {
              if (a.path != b.path) return a.path < b.path;
              return a.line < b.line;
            });
  return result;
}

std::string FormatReport(const Result& result) {
  std::ostringstream out;
  for (const Finding& finding : result.findings) {
    out << finding.path << ":" << finding.line << ": ["
        << CheckName(finding.check) << "] " << finding.message << "\n";
  }
  out << "bitpush_lint: " << result.findings.size() << " violation(s), "
      << result.waivers.size() << " waiver(s) in budget, "
      << result.files_scanned << " file(s) scanned";
  if (!result.fixed_paths.empty()) {
    out << ", " << result.fixed_paths.size() << " file(s) fixed";
  }
  out << "\n";
  return out.str();
}

std::string FormatWaiverReport(const Result& result) {
  std::ostringstream out;
  for (const Waiver& waiver : result.waivers) {
    out << waiver.path << ":" << waiver.line << ": allow("
        << CheckName(waiver.check) << "): " << waiver.reason << "\n";
  }
  out << result.waivers.size() << " waiver(s) in budget\n";
  return out.str();
}

}  // namespace bitpush::lint
