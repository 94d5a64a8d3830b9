// Cross-TU declaration index for the bitpush dataflow analyzer
// (tools/bitpush_analyze).
//
// Built on the analysis_core source model, the index extracts — with a
// token-level heuristic, no compiler involved —
//
//   * every function definition (file, base name, the line its name sits
//     on, the signature trailer, body line range),
//   * the statements inside each body (code text split on `;`/`{`/`}` at
//     parenthesis depth zero, so a call wrapped over several physical
//     lines is analyzed as one unit),
//   * the quoted-include graph between tree files and its transitive
//     closure (used to prefer in-closure candidates when a call site's
//     base name resolves to several definitions).
//
// The heuristic is deliberately conservative: it only records definitions
// found at namespace/class scope (brace nesting never inside another
// recorded function), identifies the name as the last identifier before a
// balanced parenthesis group whose trailer looks like a function signature
// (`const`, `noexcept`, `override`, a constructor init list, a trailing
// return type, or nothing), and skips preprocessor lines entirely.
// Lambdas assigned inside bodies, operator overloads, and macro-generated
// functions are not indexed; the analyzer's token rules do not depend on
// them.

#ifndef BITPUSH_TOOLS_ANALYSIS_CORE_INDEX_H_
#define BITPUSH_TOOLS_ANALYSIS_CORE_INDEX_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis_core/source_model.h"

namespace bitpush::analysis {

// One statement of a function body: the code text (whitespace-collapsed,
// literals already blanked by the lexer) and the 1-based line its first
// token sits on.
struct Statement {
  int line = 0;
  std::string text;
};

struct FunctionDef {
  std::string base_name;   // Unqualified: "HandleRequest".
  std::string qual_name;   // As written: "Client::HandleRequest".
  // Signature text after the parameter list's ')': cv/ref qualifiers,
  // noexcept, override, a constructor init list or a trailing return
  // type, whitespace-collapsed ("const", ": value_(Compute(x))").
  std::string trailer;
  int file_index = -1;     // Into Index::files.
  int name_line = 0;       // 1-based line holding the base name.
  int begin_line = 0;      // 1-based line holding the opening '{'.
  int end_line = 0;        // 1-based line holding the matching '}'.
  std::vector<Statement> statements;
};

struct Index {
  std::vector<SourceFile> files;
  std::vector<FunctionDef> functions;
  // base name -> indices into `functions`.
  std::map<std::string, std::vector<int>> by_base_name;
  // reachable[i] = file indices transitively included by files[i]
  // (including i itself). Only quoted project includes resolve.
  std::vector<std::set<int>> reachable;
};

// Consumes `files` (moves them into the index) and builds everything.
Index BuildIndex(std::vector<SourceFile> files);

}  // namespace bitpush::analysis

#endif  // BITPUSH_TOOLS_ANALYSIS_CORE_INDEX_H_
