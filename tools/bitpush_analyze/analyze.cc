#include "bitpush_analyze/analyze.h"

#include <algorithm>
#include <map>
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
#include <utility>
#include <vector>

#include "analysis_core/index.h"
#include "analysis_core/source_model.h"

namespace bitpush::analyze {
namespace {

using analysis::FunctionDef;
using analysis::Index;
using analysis::SourceFile;
using analysis::StartsWith;
using analysis::Statement;

// ---------------------------------------------------------------------------
// Check names.

struct CheckNameEntry {
  Check check;
  const char* name;
};

constexpr CheckNameEntry kCheckNames[] = {
    {Check::kPrivacyTaint, "privacy-taint"},
    {Check::kDeterminismFlow, "determinism-flow"},
    {Check::kWaiverSyntax, "waiver-syntax"},
};

// ---------------------------------------------------------------------------
// Token model of the privacy-taint pass (see analyze.h and
// docs/STATIC_ANALYSIS.md for the prose version).

// Sources: expressions that read raw client values or raw codeword bits.
const std::regex& SourceRe() {
  static const std::regex re(
      R"(\bSelectValue\s*\(|(\.|->)\s*Encode(All)?\s*\(|\bFixedPointCodec\s*::\s*Bit\s*\(|\bBuildReportBatch\s*\()");
  return re;
}

// Sanitizers: the randomized-response / masking perturbation points.
const std::regex& SanitizerRe() {
  static const std::regex re(
      R"((\.|->)\s*Apply(ToWords)?\s*\(|\bRandomizedResponse\s*::\s*Apply|\bPerturbBatch\s*\(|\bDrawFlip\s*\(|\bMaskBatch\s*\(|(\.|->)\s*Mask\s*\()");
  return re;
}

// Sinks: anything that lets a bit leave the process (wire, journal, obs).
struct SinkRule {
  const char* pattern;
  const char* label;
};

const std::vector<std::pair<std::regex, std::string>>& SinkRules() {
  static const auto* rules = [] {
    auto* r = new std::vector<std::pair<std::regex, std::string>>;
    const SinkRule raw[] = {
        {R"(\bEncodeBitReport\s*\()", "wire encoder"},
        {R"(\bEncodeShard(TickFrame|Metrics)\s*\()", "shard wire encoder"},
        {R"(\bEncode[A-Za-z0-9_]+Record\s*\()", "journal record codec"},
        // JournalWriter::Append, the only Append method in the tree.
        {R"((\.|->)\s*Append\s*\()", "journal append"},
        {R"(\bEmitEvent\s*\()", "obs event emission"},
        {R"(\b(PrometheusText|MetricsJsonl|DeterministicMetricsSnapshot|ChromeTraceJson|EventsJsonl|DeterministicEventsSnapshot|AlertTimelineText)\s*\()",
         "obs exporter"},
    };
    for (const SinkRule& rule : raw) {
      r->emplace_back(std::regex(rule.pattern), rule.label);
    }
    return r;
  }();
  return *rules;
}

// Charge / disclosure markers for the charge-before-disclosure rule.
const std::regex& ChargeRe() {
  static const std::regex re(R"(\bTryChargeBit\s*\()");
  return re;
}
const std::regex& DisclosureRe() {
  static const std::regex re(
      R"((\.|->)\s*Apply(ToWords)?\s*\(|\bPerturbBatch\s*\(|\bBitReport\s*\{)");
  return re;
}

// ---------------------------------------------------------------------------
// Statement preprocessing: classify each statement's direct tokens once and
// resolve its callees once, so the inter-procedural fixpoint below is
// regex-free.

struct StmtInfo {
  int line = 0;
  bool source = false;
  std::string source_what;
  bool sanitizer = false;
  bool sink = false;
  std::string sink_what;
  bool charge = false;
  bool disclosure = false;
  std::vector<int> callees;  // function indices, include-closure preferred
};

struct FnInfo {
  int function_index = -1;
  bool in_src = false;
  std::vector<StmtInfo> stmts;
};

bool IsCallKeyword(const std::string& word) {
  static const std::set<std::string> kKeywords = {
      "if",     "for",    "while",   "switch",  "catch",  "return",
      "sizeof", "new",    "delete",  "else",    "do",     "alignof",
      "decltype", "noexcept", "defined", "static_assert", "assert",
      "throw"};
  return kKeywords.count(word) > 0;
}

// Matched tokens end at the call's '(' — drop it for readable messages.
std::string TidyToken(std::string token) {
  while (!token.empty() &&
         (token.back() == '(' || token.back() == '{' ||
          std::isspace(static_cast<unsigned char>(token.back())))) {
    token.pop_back();
  }
  return token;
}

std::string FirstMatch(const std::string& text, const std::regex& re) {
  std::smatch match;
  if (std::regex_search(text, match, re)) return TidyToken(match[0].str());
  return "";
}

// Resolves the callees a statement can reach. A base name with several
// definitions prefers candidates whose file (or its header/impl sibling)
// is in the caller file's include closure; with no reachable candidate it
// falls back to every definition of the name (conservative).
std::vector<int> ResolveCallees(
    const Index& index, const std::map<std::string, int>& file_by_rel,
    int caller_file, const std::string& text) {
  std::vector<int> out;
  static const std::regex kCallRe(R"(([A-Za-z_][A-Za-z0-9_]*)\s*\()");
  std::set<std::string> seen;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kCallRe);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    if (IsCallKeyword(name) || !seen.insert(name).second) continue;
    const auto found = index.by_base_name.find(name);
    if (found == index.by_base_name.end()) continue;
    std::vector<int> reachable_candidates;
    for (const int fi : found->second) {
      const int candidate_file = index.functions[fi].file_index;
      bool reachable =
          index.reachable[caller_file].count(candidate_file) > 0;
      if (!reachable) {
        // A call usually resolves to a definition in the .cc paired with
        // an included .h; treat the sibling as reachable too.
        std::string sibling = index.files[candidate_file].rel_path;
        if (sibling.size() > 3 &&
            sibling.compare(sibling.size() - 3, 3, ".cc") == 0) {
          sibling.replace(sibling.size() - 3, 3, ".h");
          const auto sib = file_by_rel.find(sibling);
          reachable = sib != file_by_rel.end() &&
                      index.reachable[caller_file].count(sib->second) > 0;
        }
      }
      if (reachable) reachable_candidates.push_back(fi);
    }
    const std::vector<int>& chosen =
        reachable_candidates.empty() ? found->second : reachable_candidates;
    out.insert(out.end(), chosen.begin(), chosen.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<FnInfo> PreprocessFunctions(const Index& index) {
  std::map<std::string, int> file_by_rel;
  for (size_t i = 0; i < index.files.size(); ++i) {
    file_by_rel[index.files[i].rel_path] = static_cast<int>(i);
  }
  std::vector<FnInfo> infos;
  infos.reserve(index.functions.size());
  for (size_t fi = 0; fi < index.functions.size(); ++fi) {
    const FunctionDef& fn = index.functions[fi];
    FnInfo info;
    info.function_index = static_cast<int>(fi);
    info.in_src =
        StartsWith(index.files[fn.file_index].rel_path, "src/");
    for (const Statement& stmt : fn.statements) {
      StmtInfo si;
      si.line = stmt.line;
      si.source_what = FirstMatch(stmt.text, SourceRe());
      si.source = !si.source_what.empty();
      si.sanitizer = std::regex_search(stmt.text, SanitizerRe());
      for (const auto& [re, label] : SinkRules()) {
        std::smatch match;
        if (std::regex_search(stmt.text, match, re)) {
          si.sink = true;
          si.sink_what = label + (": " + TidyToken(match[0].str()));
          break;
        }
      }
      si.charge = std::regex_search(stmt.text, ChargeRe());
      si.disclosure = std::regex_search(stmt.text, DisclosureRe());
      si.callees =
          ResolveCallees(index, file_by_rel, fn.file_index, stmt.text);
      info.stmts.push_back(std::move(si));
    }
    infos.push_back(std::move(info));
  }
  return infos;
}

// ---------------------------------------------------------------------------
// Privacy-taint pass: intra-procedural line-ordered walk + inter-procedural
// function summaries iterated to fixpoint.

struct Summary {
  bool taints = false;     // Live (unsanitized) taint at function end.
  bool sanitizes = false;  // Applied a sanitizer and ended clean.
  bool sinks = false;      // Hit a sink before any sanitizer.
  std::string taint_origin;  // "path:line (what)" provenance chain.
  std::string sink_origin;

  friend bool operator==(const Summary&, const Summary&) = default;
};

std::string Truncate(std::string text, size_t limit = 240) {
  if (text.size() > limit) {
    text.resize(limit);
    text += "...";
  }
  return text;
}

std::string Loc(const Index& index, const FunctionDef& fn, int line) {
  return index.files[fn.file_index].rel_path + ":" + std::to_string(line);
}

// Walks one function. When `findings` is non-null (final pass), emits
// tainted-sink and charge-after-disclosure findings; otherwise only the
// summary is computed.
Summary WalkFunction(const Index& index, const FnInfo& info,
                     const std::vector<Summary>& summaries,
                     std::vector<Finding>* findings) {
  const FunctionDef& fn = index.functions[info.function_index];
  Summary out;
  bool tainted = false;
  std::string origin;
  bool saw_sanitizer = false;
  int first_charge = 0;
  int first_disclosure = 0;

  for (const StmtInfo& stmt : info.stmts) {
    // 1. Source events (direct token first, then tainting callees).
    if (stmt.source) {
      tainted = true;
      origin = Loc(index, fn, stmt.line) + " (" +
               analysis::Trim(stmt.source_what) + ")";
    } else {
      for (const int callee : stmt.callees) {
        if (!summaries[callee].taints) continue;
        tainted = true;
        origin = Truncate(Loc(index, fn, stmt.line) + " (call to " +
                          index.functions[callee].base_name + " -> " +
                          summaries[callee].taint_origin + ")");
        break;
      }
    }
    // 2. Sanitizer events clear the taint (a same-statement source is the
    //    argument of the sanitizer — rr.Apply(FixedPointCodec::Bit(...))).
    bool sanitizer = stmt.sanitizer;
    for (const int callee : stmt.callees) {
      if (summaries[callee].sanitizes) {
        sanitizer = true;
        break;
      }
    }
    if (sanitizer) {
      tainted = false;
      saw_sanitizer = true;
    }
    // 3. Sink events.
    std::string sink_desc;
    if (stmt.sink) {
      sink_desc = stmt.sink_what;
    } else {
      for (const int callee : stmt.callees) {
        if (!summaries[callee].sinks) continue;
        sink_desc = Truncate("call to " + index.functions[callee].base_name +
                             " -> " + summaries[callee].sink_origin);
        break;
      }
    }
    if (!sink_desc.empty()) {
      if (tainted && findings != nullptr) {
        findings->push_back(
            {index.files[fn.file_index].rel_path, stmt.line,
             Check::kPrivacyTaint,
             Truncate("raw client value reaches a disclosure sink without "
                      "randomized-response perturbation; taint: " +
                          origin + " -> sink at " +
                          Loc(index, fn, stmt.line) + " (" + sink_desc + ")",
                      400)});
      }
      if (!saw_sanitizer && !out.sinks) {
        out.sinks = true;
        out.sink_origin =
            Loc(index, fn, stmt.line) + " (" + sink_desc + ")";
      }
    }
    if (stmt.charge && first_charge == 0) first_charge = stmt.line;
    if (stmt.disclosure && first_disclosure == 0) {
      first_disclosure = stmt.line;
    }
  }

  if (tainted) {
    out.taints = true;
    out.taint_origin = origin;
  } else if (saw_sanitizer) {
    out.sanitizes = true;
  }
  if (findings != nullptr && first_charge != 0 && first_disclosure != 0 &&
      first_disclosure < first_charge) {
    findings->push_back(
        {index.files[fn.file_index].rel_path, first_disclosure,
         Check::kPrivacyTaint,
         "disclosure happens before the privacy-meter charge "
         "(TryChargeBit on line " +
             std::to_string(first_charge) +
             "); the paper's one-bit contract requires the charge to gate "
             "the perturbation"});
  }
  return out;
}

void RunPrivacyTaint(const Index& index, const std::vector<FnInfo>& infos,
                     std::vector<Finding>* findings) {
  std::vector<Summary> summaries(index.functions.size());
  // Fixpoint over summaries: flags propagate through at most one call
  // chain link per iteration; real chains are shallow, so cap generously.
  for (int iteration = 0; iteration < 20; ++iteration) {
    bool changed = false;
    for (const FnInfo& info : infos) {
      Summary next = WalkFunction(index, info, summaries, nullptr);
      if (!(next == summaries[info.function_index])) {
        summaries[info.function_index] = std::move(next);
        changed = true;
      }
    }
    if (!changed) break;
  }
  // Final pass with findings, src/ only: tests, bench, and tools are
  // harness roots (they build synthetic reports and print), but their
  // definitions already contributed to the summaries above.
  for (const FnInfo& info : infos) {
    if (!info.in_src) continue;
    WalkFunction(index, info, summaries, findings);
  }
}

// ---------------------------------------------------------------------------
// Determinism-flow pass.

const std::regex& RngCtorRe() {
  static const std::regex re(
      R"((^|[^:A-Za-z0-9_])Rng\s*[({]|\bRng\s+[A-Za-z_][A-Za-z0-9_]*\s*[({])");
  return re;
}
const std::regex& SeedLineageRe() {
  static const std::regex re(R"([Ss]eed|\bFork\b)");
  return re;
}
const std::regex& DrawRe() {
  static const std::regex re(
      R"(([A-Za-z_][A-Za-z0-9_]*(?:(?:\.|->)[A-Za-z_][A-Za-z0-9_]*)*)\s*(?:\.|->)\s*(NextUint64|NextDouble|NextBelow|NextBernoulli|NextBit|DrawFlip)\s*\()");
  return re;
}
const std::regex& KernelDrawRe() {
  static const std::regex re(
      R"((\.|->)\s*(NextUint64|NextDouble|NextBelow|NextBernoulli|NextBit|Fork)\s*\(|\bDrawFlip\s*\(|\bFillBernoulliWords\s*\()");
  return re;
}
const std::regex& ReplayBoundaryRe() {
  static const std::regex re(
      R"(\b(Restart|Recover|Reopen|ReplayJournal)[A-Za-z0-9_]*\s*\()");
  return re;
}

bool RngAllowlisted(const std::string& rel_path) {
  // The Rng implementation itself (Fork() forks from its own stream).
  return StartsWith(rel_path, "src/rng/");
}

bool KernelDrawAllowlisted(const std::string& rel_path) {
  // shared.cc IS the sanctioned scalar randomness source the perturbation
  // kernels consume precomputed words from; kernels.h declares it.
  return rel_path == "src/kernels/shared.cc" ||
         rel_path == "src/kernels/kernels.h";
}

void CheckUnforkedRngStatement(const Index& index, const FunctionDef& fn,
                               const Statement& stmt,
                               std::vector<Finding>* findings) {
  if (!std::regex_search(stmt.text, RngCtorRe())) return;
  if (std::regex_search(stmt.text, SeedLineageRe())) return;
  findings->push_back(
      {index.files[fn.file_index].rel_path, stmt.line,
       Check::kDeterminismFlow,
       "Rng constructed from an expression with no seed/fork lineage; "
       "every stream must descend from the seeded fork roots (campaign "
       "seed, ShardSeed, Rng::Fork) so replay and shard determinism hold"});
}

void CheckRngReuseAcrossReplay(const Index& index, const FunctionDef& fn,
                               const std::vector<Statement>& stmts,
                               std::vector<Finding>* findings) {
  std::set<std::string> drawn_before;
  std::set<std::string> reseeded_after;
  std::set<std::string> reported;
  bool boundary_seen = false;
  int boundary_line = 0;
  static const std::regex kReseedRhsRe(R"(\bRng\s*\(|(\.|->)\s*Fork\s*\()");
  for (const Statement& stmt : stmts) {
    // Reseeds: `recv = Rng(...)` or `recv = x.Fork()`.
    if (std::regex_search(stmt.text, kReseedRhsRe)) {
      static const std::regex kAssignRe(
          R"(([A-Za-z_][A-Za-z0-9_]*(?:(?:\.|->)[A-Za-z_][A-Za-z0-9_]*)*)\s*=)");
      std::smatch match;
      if (std::regex_search(stmt.text, match, kAssignRe)) {
        const std::string receiver = match[1].str();
        if (boundary_seen) {
          reseeded_after.insert(receiver);
        } else {
          drawn_before.erase(receiver);
        }
      }
    }
    if (std::regex_search(stmt.text, ReplayBoundaryRe())) {
      boundary_seen = true;
      boundary_line = stmt.line;
    }
    for (auto it = std::sregex_iterator(stmt.text.begin(), stmt.text.end(),
                                        DrawRe());
         it != std::sregex_iterator(); ++it) {
      const std::string receiver = (*it)[1].str();
      if (!boundary_seen) {
        drawn_before.insert(receiver);
        continue;
      }
      if (drawn_before.count(receiver) > 0 &&
          reseeded_after.count(receiver) == 0 &&
          reported.insert(receiver).second) {
        findings->push_back(
            {index.files[fn.file_index].rel_path, stmt.line,
             Check::kDeterminismFlow,
             "RNG stream `" + receiver +
                 "` is drawn both before and after the replay boundary on "
                 "line " +
                 std::to_string(boundary_line) +
                 " without reseeding; a replayed run would resume a "
                 "diverged stream"});
      }
    }
  }
}

void RunDeterminismFlow(const Index& index,
                        std::vector<Finding>* findings) {
  // Per-file map of lines covered by an indexed function body, so the
  // namespace-scope scan below doesn't double-report statement findings.
  std::vector<std::vector<bool>> in_function(index.files.size());
  for (size_t i = 0; i < index.files.size(); ++i) {
    in_function[i].assign(index.files[i].code_lines.size() + 2, false);
  }
  for (const FunctionDef& fn : index.functions) {
    auto& lines = in_function[fn.file_index];
    for (int l = fn.begin_line;
         l <= fn.end_line && l < static_cast<int>(lines.size()); ++l) {
      lines[l] = true;
    }
  }

  for (const FunctionDef& fn : index.functions) {
    const std::string& rel = index.files[fn.file_index].rel_path;
    if (!StartsWith(rel, "src/")) continue;
    if (!RngAllowlisted(rel)) {
      for (const Statement& stmt : fn.statements) {
        CheckUnforkedRngStatement(index, fn, stmt, findings);
      }
    }
    CheckRngReuseAcrossReplay(index, fn, fn.statements, findings);
  }

  for (size_t fi = 0; fi < index.files.size(); ++fi) {
    const SourceFile& file = index.files[fi];
    if (!StartsWith(file.rel_path, "src/")) continue;
    // Kernel purity: line-level over the whole file.
    if (StartsWith(file.rel_path, "src/kernels/") &&
        !KernelDrawAllowlisted(file.rel_path)) {
      for (size_t i = 0; i < file.code_lines.size(); ++i) {
        if (std::regex_search(file.code_lines[i], KernelDrawRe())) {
          findings->push_back(
              {file.rel_path, static_cast<int>(i + 1),
               Check::kDeterminismFlow,
               "random draw inside kernel code; kernels are contractually "
               "randomness-free (the sanctioned scalar source is "
               "src/kernels/shared.cc, consumed as precomputed words)"});
        }
      }
    }
    // Namespace-scope Rng constructions (statics) outside any function.
    if (RngAllowlisted(file.rel_path)) continue;
    for (size_t i = 0; i < file.code_lines.size(); ++i) {
      if (in_function[fi][i + 1]) continue;
      const std::string& code = file.code_lines[i];
      if (!std::regex_search(code, RngCtorRe())) continue;
      // The seed expression may wrap to the following lines.
      std::string window = code;
      for (size_t j = i + 1; j < file.code_lines.size() && j < i + 3; ++j) {
        window += '\n';
        window += file.code_lines[j];
      }
      if (std::regex_search(window, SeedLineageRe())) continue;
      findings->push_back(
          {file.rel_path, static_cast<int>(i + 1), Check::kDeterminismFlow,
           "Rng constructed from an expression with no seed/fork lineage; "
           "every stream must descend from the seeded fork roots (campaign "
           "seed, ShardSeed, Rng::Fork) so replay and shard determinism "
           "hold"});
    }
  }
}

// ---------------------------------------------------------------------------
// Waivers.

struct ParsedWaivers {
  std::vector<Waiver> waivers;
  std::vector<Finding> syntax_findings;
};

ParsedWaivers ParseWaivers(const SourceFile& file) {
  ParsedWaivers out;
  const analysis::ParsedAnnotations parsed =
      analysis::ParseAnnotations(file, "bitpush-analyze");
  for (const analysis::MalformedAnnotation& bad : parsed.malformed) {
    if (bad.missing_reason) {
      out.syntax_findings.push_back(
          {file.rel_path, bad.line, Check::kWaiverSyntax,
           "waiver for `" + bad.check_name +
               "` is missing its reason string"});
    } else {
      out.syntax_findings.push_back(
          {file.rel_path, bad.line, Check::kWaiverSyntax,
           "malformed bitpush-analyze annotation; expected "
           "`// bitpush-analyze: allow(<check>): <reason>`"});
    }
  }
  for (const analysis::Annotation& annotation : parsed.annotations) {
    Check check;
    if (!ParseCheckName(annotation.check_name, &check) ||
        check == Check::kWaiverSyntax) {
      out.syntax_findings.push_back(
          {file.rel_path, annotation.line, Check::kWaiverSyntax,
           "unknown analyze check `" + annotation.check_name +
               "` in waiver"});
      continue;
    }
    out.waivers.push_back(
        {file.rel_path, annotation.line, check, annotation.reason});
  }
  return out;
}

// privacy-taint is a whole-TU property (the taint may originate lines away
// from the sink), so its waivers are file-scoped; determinism-flow waivers
// cover lines L and L+1 like the linter's.
bool IsSuppressed(const Finding& finding, const std::vector<Waiver>& waivers) {
  for (const Waiver& waiver : waivers) {
    if (waiver.check != finding.check || waiver.path != finding.path) continue;
    if (finding.check == Check::kPrivacyTaint) return true;
    if (finding.line == waiver.line || finding.line == waiver.line + 1) {
      return true;
    }
  }
  return false;
}

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

Result RunAnalyze(const std::string& root, const Options& options) {
  Result result;
  analysis::TreeLoadResult tree = analysis::LoadTree(root);
  if (tree.io_error) {
    result.io_error = true;
    result.io_error_message = std::move(tree.io_error_message);
    return result;
  }
  const Index index = analysis::BuildIndex(std::move(tree.files));
  result.files_scanned = static_cast<int>(index.files.size());
  result.functions_indexed = static_cast<int>(index.functions.size());

  std::vector<Finding> raw_findings;
  std::vector<Waiver> all_waivers;
  for (const SourceFile& file : index.files) {
    ParsedWaivers parsed = ParseWaivers(file);
    for (Finding& finding : parsed.syntax_findings) {
      raw_findings.push_back(std::move(finding));
    }
    for (Waiver& waiver : parsed.waivers) {
      all_waivers.push_back(std::move(waiver));
    }
  }

  if (CheckEnabled(options, Check::kPrivacyTaint)) {
    const std::vector<FnInfo> infos = PreprocessFunctions(index);
    RunPrivacyTaint(index, infos, &raw_findings);
  }
  if (CheckEnabled(options, Check::kDeterminismFlow)) {
    RunDeterminismFlow(index, &raw_findings);
  }

  for (Finding& finding : raw_findings) {
    if (IsSuppressed(finding, all_waivers)) continue;
    result.findings.push_back(std::move(finding));
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
  out << "bitpush_analyze: " << result.findings.size() << " finding(s), "
      << result.waivers.size() << " waiver(s) in budget, "
      << result.files_scanned << " file(s) scanned, "
      << result.functions_indexed << " function(s) indexed\n";
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

}  // namespace bitpush::analyze
