#include "data/file_source.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/check.h"

namespace bitpush {
namespace {

bool IsBlankOrComment(const std::string& line) {
  for (const char c : line) {
    if (c == '#') return true;
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

bool LoadDatasetFromFile(const std::string& path, Dataset* out,
                         std::string* error) {
  BITPUSH_CHECK(out != nullptr);
  std::ifstream in(path);
  if (!in) {
    SetError(error, "cannot open " + path);
    return false;
  }
  std::vector<double> values;
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (IsBlankOrComment(line)) continue;
    char* end = nullptr;
    const double value = std::strtod(line.c_str(), &end);
    // Allow trailing whitespace only.
    while (end != nullptr && (*end == ' ' || *end == '\t' || *end == '\r')) {
      ++end;
    }
    if (end == line.c_str() || end == nullptr || *end != '\0') {
      std::ostringstream message;
      message << path << ":" << line_number << ": not a number: '" << line
              << "'";
      SetError(error, message.str());
      return false;
    }
    values.push_back(value);
  }
  *out = Dataset(path, std::move(values));
  return true;
}

}  // namespace bitpush
