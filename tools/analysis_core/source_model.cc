#include "analysis_core/source_model.h"

#include <algorithm>
#include <cctype>
#include <fstream>
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
#include <sstream>
#include <utility>

namespace bitpush::analysis {

namespace fs = std::filesystem;

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

void LexFile(const std::vector<std::string>& raw,
             std::vector<std::string>* code_lines,
             std::vector<std::string>* comment_lines) {
  enum class State { kCode, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // For raw strings: the )delim" terminator.

  for (const std::string& line : raw) {
    std::string code(line.size(), ' ');
    std::string comment(line.size(), ' ');
    size_t i = 0;
    while (i < line.size()) {
      const char c = line[i];
      const char next = i + 1 < line.size() ? line[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            // Rest of the line is a comment.
            for (size_t j = i + 2; j < line.size(); ++j) {
              comment[j] = line[j];
            }
            i = line.size();
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            i += 2;
          } else if (c == 'R' && next == '"' &&
                     (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                     line[i - 1])) &&
                                 line[i - 1] != '_'))) {
            // Raw string literal: R"delim( ... )delim".
            size_t paren = line.find('(', i + 2);
            if (paren == std::string::npos) {
              // Malformed; treat rest of line as code.
              code[i] = c;
              ++i;
              break;
            }
            raw_delim = ")";
            raw_delim += line.substr(i + 2, paren - (i + 2));
            raw_delim += '"';
            code[i] = 'R';
            code[i + 1] = '"';
            state = State::kRawString;
            i = paren + 1;
          } else if (c == '"') {
            code[i] = c;
            state = State::kString;
            ++i;
          } else if (c == '\'') {
            // A quote directly after an identifier/digit character is a
            // C++14 digit separator (1'000'000), not a char literal.
            const bool separator =
                i > 0 && (std::isalnum(static_cast<unsigned char>(
                              line[i - 1])) ||
                          line[i - 1] == '_');
            code[i] = c;
            if (!separator) state = State::kChar;
            ++i;
          } else {
            code[i] = c;
            ++i;
          }
          break;
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            state = State::kCode;
            i += 2;
          } else {
            comment[i] = c;
            ++i;
          }
          break;
        case State::kString:
          if (c == '\\') {
            i += 2;
          } else if (c == '"') {
            code[i] = c;
            state = State::kCode;
            ++i;
          } else {
            ++i;
          }
          break;
        case State::kChar:
          if (c == '\\') {
            i += 2;
          } else if (c == '\'') {
            code[i] = c;
            state = State::kCode;
            ++i;
          } else {
            ++i;
          }
          break;
        case State::kRawString: {
          const size_t end = line.find(raw_delim, i);
          if (end == std::string::npos) {
            i = line.size();
          } else {
            state = State::kCode;
            i = end + raw_delim.size();
            if (i > 0) code[i - 1] = '"';
          }
          break;
        }
      }
    }
    // A string or char literal cannot span a physical line (raw strings
    // can); recover rather than poison the rest of the file.
    if (state == State::kString || state == State::kChar) state = State::kCode;
    code_lines->push_back(code);
    comment_lines->push_back(comment);
  }
}

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool LoadFile(const fs::path& abs, const std::string& rel,
              SourceFile* out, std::string* error) {
  std::ifstream in(abs, std::ios::binary);
  if (!in) {
    *error = "cannot read " + abs.string();
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out->rel_path = rel;
  out->abs_path = abs.string();
  out->raw_lines = SplitLines(buffer.str());
  out->is_header = rel.size() >= 2 && rel.compare(rel.size() - 2, 2, ".h") == 0;
  LexFile(out->raw_lines, &out->code_lines, &out->comment_lines);
  return true;
}

void Relex(SourceFile* file) {
  file->code_lines.clear();
  file->comment_lines.clear();
  LexFile(file->raw_lines, &file->code_lines, &file->comment_lines);
}

TreeLoadResult LoadTree(const std::string& root,
                        const std::vector<std::string>& top_dirs) {
  TreeLoadResult result;
  bool any_dir = false;
  for (const std::string& top : top_dirs) {
    const fs::path dir = fs::path(root) / top;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    any_dir = true;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_directory() &&
          it->path().filename().string() == "golden") {
        // Fixture snippets (tests/golden/{lint,analyze}/ hold deliberately
        // broken inputs) must not count against the real tree.
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".cc" && ext != ".h") continue;
      const std::string rel =
          fs::relative(it->path(), fs::path(root)).generic_string();
      SourceFile file;
      std::string error;
      if (!LoadFile(it->path(), rel, &file, &error)) {
        result.io_error = true;
        result.io_error_message = error;
        return result;
      }
      result.files.push_back(std::move(file));
    }
  }
  if (!any_dir) {
    std::string dirs;
    for (const std::string& top : top_dirs) {
      dirs += (dirs.empty() ? "" : ", ") + top + "/";
    }
    result.io_error = true;
    result.io_error_message = "none of " + dirs + " is a directory under " +
                              root;
    return result;
  }
  std::sort(result.files.begin(), result.files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel_path < b.rel_path;
            });
  return result;
}

ParsedAnnotations ParseAnnotations(const SourceFile& file,
                                   const std::string& marker) {
  ParsedAnnotations out;
  const std::regex waiver_re(
      marker + R"(:\s*allow\(([A-Za-z0-9_-]+)\)\s*:\s*(.*))");
  // Backtick-quoted mentions (`<marker>: ...`) are prose about the syntax,
  // not annotations; docs and the tools' own comments use them.
  const std::regex marker_re("(^|[^`])" + marker);
  for (size_t i = 0; i < file.comment_lines.size(); ++i) {
    const std::string& comment = file.comment_lines[i];
    if (!std::regex_search(comment, marker_re)) continue;
    std::smatch match;
    if (!std::regex_search(comment, match, waiver_re)) {
      out.malformed.push_back({static_cast<int>(i + 1), false, ""});
      continue;
    }
    const std::string reason = Trim(match[2].str());
    if (reason.empty()) {
      out.malformed.push_back(
          {static_cast<int>(i + 1), true, match[1].str()});
      continue;
    }
    out.annotations.push_back(
        {static_cast<int>(i + 1), match[1].str(), reason});
  }
  return out;
}

}  // namespace bitpush::analysis
