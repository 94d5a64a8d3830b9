#include "analysis_core/index.h"

#include <cctype>
#include <deque>
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
#include <utility>

namespace bitpush::analysis {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsKeyword(const std::string& word) {
  static const std::set<std::string> kKeywords = {
      "if",     "for",      "while",  "switch",        "catch",
      "return", "sizeof",   "new",    "delete",        "else",
      "do",     "alignof",  "alignas", "decltype",     "static_assert",
      "noexcept", "defined", "throw", "co_return",     "co_await",
      "co_yield", "requires"};
  return kKeywords.count(word) > 0;
}

// Matches the text after a candidate signature's closing ')': empty, a
// cv/ref/noexcept/override trailer, upper-case annotation macros such as
// BITPUSH_REQUIRES(mutex_), a constructor init list, or a trailing return
// type.
bool TrailerLooksLikeSignature(const std::string& trailer) {
  static const std::regex kTrailerRe(
      R"(^\s*((const|noexcept|override|final|&|&&|[A-Z][A-Z0-9_]*\s*\([^()]*\))\s*)*(noexcept\s*\([^)]*\)\s*)?((->|:)\s*\S.*)?\s*$)");
  return std::regex_match(trailer, kTrailerRe);
}

// Finds the matching ')' for the '(' at `open` in `s`; npos if unbalanced.
size_t MatchParen(const std::string& s, size_t open) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

// Decides whether `pending` (the signature text accumulated since the last
// statement boundary) is a function definition about to open its body, and
// if so extracts the name. Picks the FIRST identifier-before-'(' whose
// parenthesis group balances and whose trailer looks like a signature —
// later candidates are constructor-init-list entries.
bool SignatureName(const std::string& pending, std::string* base_name,
                   std::string* qual_name, size_t* name_pos,
                   std::string* trailer) {
  static const std::regex kCallRe(R"(([A-Za-z_][A-Za-z0-9_]*)\s*\()");
  auto begin = std::sregex_iterator(pending.begin(), pending.end(), kCallRe);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    if (IsKeyword(name)) continue;
    const size_t open = it->position(0) + it->length(0) - 1;
    const size_t close = MatchParen(pending, open);
    if (close == std::string::npos) continue;
    if (!TrailerLooksLikeSignature(pending.substr(close + 1))) continue;
    *base_name = name;
    *name_pos = it->position(1);
    *trailer = Trim(pending.substr(close + 1));
    // Extend backwards over a `Qualifier::`* chain for the written name.
    size_t start = it->position(1);
    size_t cursor = start;
    while (cursor >= 2 && pending[cursor - 1] == ':' &&
           pending[cursor - 2] == ':') {
      size_t word_end = cursor - 2;
      size_t word_begin = word_end;
      while (word_begin > 0 && IsIdentChar(pending[word_begin - 1])) {
        --word_begin;
      }
      if (word_begin == word_end) break;
      cursor = word_begin;
    }
    *qual_name = pending.substr(cursor, open - cursor);
    while (!qual_name->empty() && std::isspace(static_cast<unsigned char>(
                                      qual_name->back()))) {
      qual_name->pop_back();
    }
    return true;
  }
  return false;
}

// True for preprocessor lines (and their backslash continuations), which
// must not contribute braces or signature text.
class PreprocessorSkipper {
 public:
  bool Skip(const std::string& code_line) {
    if (continuing_) {
      continuing_ = EndsWithBackslash(code_line);
      return true;
    }
    const std::string trimmed = Trim(code_line);
    if (!trimmed.empty() && trimmed[0] == '#') {
      continuing_ = EndsWithBackslash(code_line);
      return true;
    }
    return false;
  }

 private:
  static bool EndsWithBackslash(const std::string& line) {
    const std::string trimmed = Trim(line);
    return !trimmed.empty() && trimmed.back() == '\\';
  }
  bool continuing_ = false;
};

void AppendCollapsed(char c, std::string* out) {
  if (std::isspace(static_cast<unsigned char>(c))) {
    if (!out->empty() && out->back() != ' ') out->push_back(' ');
  } else {
    out->push_back(c);
  }
}

// Splits a body region (from just after the opening '{' to just before the
// matching '}') into statements at `;`/`{`/`}` seen at parenthesis depth
// zero, so multi-line calls — and lambdas passed as arguments — stay one
// unit.
std::vector<Statement> ExtractStatements(const SourceFile& file,
                                         int begin_line, size_t begin_col,
                                         int end_line, size_t end_col) {
  std::vector<Statement> statements;
  std::string current;
  int current_line = 0;
  int paren = 0;
  PreprocessorSkipper preprocessor;
  const auto flush = [&] {
    const std::string text = Trim(current);
    if (!text.empty()) statements.push_back({current_line, text});
    current.clear();
    current_line = 0;
  };
  for (int li = begin_line; li <= end_line; ++li) {
    const std::string& code = file.code_lines[li - 1];
    if (preprocessor.Skip(code)) continue;
    size_t from = li == begin_line ? begin_col + 1 : 0;
    size_t to = li == end_line ? end_col : code.size();
    for (size_t i = from; i < to && i < code.size(); ++i) {
      const char c = code[i];
      if (c == '(') ++paren;
      if (c == ')' && paren > 0) --paren;
      if (paren == 0 && (c == ';' || c == '{' || c == '}')) {
        flush();
        continue;
      }
      if (current_line == 0 &&
          !std::isspace(static_cast<unsigned char>(c))) {
        current_line = li;
      }
      AppendCollapsed(c, &current);
    }
    AppendCollapsed('\n', &current);
  }
  flush();
  return statements;
}

void ExtractFunctions(const SourceFile& file, int file_index,
                      std::vector<FunctionDef>* functions) {
  struct OpenBrace {
    bool is_function = false;
    int function_index = -1;
    size_t col = 0;
    int line = 0;
  };
  std::vector<OpenBrace> stack;
  int open_functions = 0;
  int paren = 0;
  std::string pending;
  // pending_lines[k] = 1-based line that pending[k] came from.
  std::vector<int> pending_lines;
  const auto append = [&](char c, size_t li) {
    AppendCollapsed(c, &pending);
    pending_lines.resize(pending.size(), static_cast<int>(li + 1));
  };
  const auto clear_pending = [&] {
    pending.clear();
    pending_lines.clear();
  };
  PreprocessorSkipper preprocessor;

  for (size_t li = 0; li < file.code_lines.size(); ++li) {
    const std::string& code = file.code_lines[li];
    if (preprocessor.Skip(code)) continue;
    for (size_t i = 0; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '(' || c == ')' || paren > 0) {
        // Braces/semicolons inside parens don't scope, but the text is
        // still part of any signature being accumulated.
        if (c == '(') ++paren;
        if (c == ')' && paren > 0) --paren;
        if (open_functions == 0) append(c, li);
        continue;
      }
      if (c == '{') {
        OpenBrace open;
        open.col = i;
        open.line = static_cast<int>(li + 1);
        if (open_functions == 0) {
          FunctionDef def;
          size_t name_pos = 0;
          if (SignatureName(pending, &def.base_name, &def.qual_name,
                            &name_pos, &def.trailer)) {
            def.file_index = file_index;
            def.name_line = pending_lines[name_pos];
            def.begin_line = static_cast<int>(li + 1);
            open.is_function = true;
            open.function_index = static_cast<int>(functions->size());
            ++open_functions;
            functions->push_back(std::move(def));
          }
        }
        stack.push_back(open);
        clear_pending();
        continue;
      }
      if (c == '}') {
        if (!stack.empty()) {
          const OpenBrace open = stack.back();
          stack.pop_back();
          if (open.is_function) {
            --open_functions;
            FunctionDef& def = (*functions)[open.function_index];
            def.end_line = static_cast<int>(li + 1);
            def.statements = ExtractStatements(file, open.line, open.col,
                                               def.end_line, i);
          }
        }
        clear_pending();
        continue;
      }
      if (open_functions > 0) continue;  // Bodies are handled separately.
      if (c == ';') {
        clear_pending();
        continue;
      }
      append(c, li);
    }
    if (open_functions == 0 && paren == 0) append('\n', li);
  }
}

void BuildIncludeClosure(Index* index) {
  std::map<std::string, int> by_rel;
  for (size_t i = 0; i < index->files.size(); ++i) {
    by_rel[index->files[i].rel_path] = static_cast<int>(i);
  }
  static const std::regex kIncludeRe(R"re(^\s*#\s*include\s*"([^"]+)")re");
  std::vector<std::vector<int>> edges(index->files.size());
  for (size_t i = 0; i < index->files.size(); ++i) {
    const SourceFile& file = index->files[i];
    for (size_t li = 0; li < file.code_lines.size(); ++li) {
      // The lexer blanks the path (a string literal) out of the code
      // channel, so the code line says whether this is a live include and
      // the raw line supplies the path.
      std::smatch match;
      if (!std::regex_search(file.code_lines[li], kIncludeRe) ||
          !std::regex_search(file.raw_lines[li], match, kIncludeRe)) {
        continue;
      }
      const std::string inc = match[1].str();
      // Project includes are written relative to a top-level dir (src/,
      // tools/, tests/); try each resolution in turn.
      for (const std::string& candidate :
           {inc, "src/" + inc, "tools/" + inc, "tests/" + inc,
            "bench/" + inc}) {
        const auto it = by_rel.find(candidate);
        if (it != by_rel.end()) {
          edges[i].push_back(it->second);
          break;
        }
      }
    }
  }
  index->reachable.resize(index->files.size());
  for (size_t i = 0; i < index->files.size(); ++i) {
    std::set<int>& seen = index->reachable[i];
    std::deque<int> queue = {static_cast<int>(i)};
    seen.insert(static_cast<int>(i));
    while (!queue.empty()) {
      const int at = queue.front();
      queue.pop_front();
      for (const int next : edges[at]) {
        if (seen.insert(next).second) queue.push_back(next);
      }
    }
  }
}

}  // namespace

Index BuildIndex(std::vector<SourceFile> files) {
  Index index;
  index.files = std::move(files);
  for (size_t i = 0; i < index.files.size(); ++i) {
    ExtractFunctions(index.files[i], static_cast<int>(i), &index.functions);
  }
  for (size_t i = 0; i < index.functions.size(); ++i) {
    index.by_base_name[index.functions[i].base_name].push_back(
        static_cast<int>(i));
  }
  BuildIncludeClosure(&index);
  return index;
}

}  // namespace bitpush::analysis
