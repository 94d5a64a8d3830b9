// bitpush_lint CLI. See lint.h for the check catalogue and
// docs/STATIC_ANALYSIS.md for rationale and waiver policy.
//
// Usage:
//   bitpush_lint [--root=DIR] [--checks=a,b,c] [--list-waivers] [--fix]
//
// Exit status: 0 clean, 1 violations found, 2 usage or I/O error.

#include <cstdio>
#include <string>
#include <vector>

#include "bitpush_lint/lint.h"

namespace {

bool ConsumeFlag(const std::string& arg, const std::string& name,
                 std::string* value) {
  const std::string prefix = name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: bitpush_lint [--root=DIR] [--checks=c1,c2,...] "
      "[--list-waivers] [--fix]\n"
      "checks: determinism privacy-metering wire-exhaustiveness "
      "obs-stability header-hygiene unreached-module "
      "unreached-function\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool list_waivers = false;
  bitpush::lint::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ConsumeFlag(arg, "--root", &value)) {
      root = value;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (ConsumeFlag(arg, "--checks", &value)) {
      size_t begin = 0;
      while (begin <= value.size()) {
        size_t comma = value.find(',', begin);
        if (comma == std::string::npos) comma = value.size();
        const std::string name = value.substr(begin, comma - begin);
        begin = comma + 1;
        if (name.empty()) continue;
        bitpush::lint::Check check;
        if (!bitpush::lint::ParseCheckName(name, &check)) {
          std::fprintf(stderr, "bitpush_lint: unknown check `%s`\n",
                       name.c_str());
          return Usage();
        }
        options.checks.push_back(check);
      }
    } else if (arg == "--list-waivers") {
      list_waivers = true;
    } else if (arg == "--fix") {
      options.fix = true;
    } else {
      return Usage();
    }
  }

  const bitpush::lint::Result result = bitpush::lint::RunLint(root, options);
  if (result.io_error) {
    std::fprintf(stderr, "bitpush_lint: %s\n",
                 result.io_error_message.c_str());
    return 2;
  }
  if (list_waivers) {
    std::fputs(bitpush::lint::FormatWaiverReport(result).c_str(), stdout);
  }
  std::fputs(bitpush::lint::FormatReport(result).c_str(), stdout);
  return result.findings.empty() ? 0 : 1;
}
