// Shared source model for the bitpush static-analysis tools
// (tools/bitpush_lint, tools/bitpush_analyze).
//
// A file is split into per-line *code* text (string/char-literal contents
// and comments blanked out) and per-line *comment* text. The split lets
// token checks run on code without tripping over patterns quoted in string
// literals or prose, while annotation (waiver) parsing sees only comments.
// The lexer is a single pass over the whole file and tracks block
// comments, string / char literals, and raw string literals across line
// boundaries.
//
// LoadTree walks <root>/{src,tests,bench,tools} (or the top directories a
// caller names), skipping directories named "golden" (fixture snippets —
// including the deliberately-broken inputs of tests/golden/lint/ and
// tests/golden/analyze/ — must not count against the real tree), and
// returns the files sorted by relative path so every consumer reports
// findings in a stable order.

#ifndef BITPUSH_TOOLS_ANALYSIS_CORE_SOURCE_MODEL_H_
#define BITPUSH_TOOLS_ANALYSIS_CORE_SOURCE_MODEL_H_

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace bitpush::analysis {

struct SourceFile {
  std::string rel_path;  // Relative to the tree root, '/'-separated.
  std::string abs_path;
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;
  std::vector<std::string> comment_lines;
  bool is_header = false;
};

std::vector<std::string> SplitLines(const std::string& text);

// Populates code/comment channels (same length as `raw`, column-aligned,
// non-channel bytes blanked to spaces).
void LexFile(const std::vector<std::string>& raw,
             std::vector<std::string>* code_lines,
             std::vector<std::string>* comment_lines);

std::string Trim(const std::string& s);
bool StartsWith(const std::string& s, std::string_view prefix);

// Reads and lexes one file. Returns false (and sets *error) on I/O failure.
bool LoadFile(const std::filesystem::path& abs, const std::string& rel,
              SourceFile* out, std::string* error);

// Re-derives the code/comment channels after raw_lines were edited.
void Relex(SourceFile* file);

struct TreeLoadResult {
  std::vector<SourceFile> files;  // sorted by rel_path
  bool io_error = false;
  std::string io_error_message;
};

// Loads every *.h / *.cc under <root>/<dir> for each of `top_dirs`. `root`
// must contain at least one of them.
TreeLoadResult LoadTree(const std::string& root,
                        const std::vector<std::string>& top_dirs = {
                            "src", "tests", "bench", "tools"});

// ---------------------------------------------------------------------------
// Annotation (waiver) parsing, shared syntax:
//
//   // <marker>: allow(<check-name>): <reason>
//
// The check-name vocabulary belongs to the calling tool; this parser only
// enforces the shape and the mandatory reason. Backtick-quoted mentions
// (`<marker>: ...`) are prose about the syntax, not annotations.

struct Annotation {
  int line = 0;  // 1-based.
  std::string check_name;
  std::string reason;
};

struct MalformedAnnotation {
  int line = 0;
  // When true the shape matched but the reason string was empty;
  // check_name holds the named check. When false the marker appeared but
  // the `allow(<check>): <reason>` shape did not parse.
  bool missing_reason = false;
  std::string check_name;
};

struct ParsedAnnotations {
  std::vector<Annotation> annotations;
  std::vector<MalformedAnnotation> malformed;
};

ParsedAnnotations ParseAnnotations(const SourceFile& file,
                                   const std::string& marker);

}  // namespace bitpush::analysis

#endif  // BITPUSH_TOOLS_ANALYSIS_CORE_SOURCE_MODEL_H_
