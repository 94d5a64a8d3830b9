#include "util/flags.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/check.h"

namespace bitpush {
namespace {

// Splits "--name=value" into (name, value). Returns false if `arg` is not of
// that shape.
bool SplitFlag(const std::string& arg, std::string* name, std::string* value) {
  if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') return false;
  const size_t eq = arg.find('=');
  if (eq == std::string::npos) {
    *name = arg.substr(2);
    value->clear();
    return true;
  }
  *name = arg.substr(2, eq - 2);
  *value = arg.substr(eq + 1);
  return true;
}

}  // namespace

void FlagSet::Add(const std::string& name, Type type, void* target,
                  const std::string& help, const std::string& default_value) {
  BITPUSH_CHECK(target != nullptr);
  for (const Flag& flag : flags_) {
    BITPUSH_CHECK_NE(flag.name, name) << "duplicate flag";
  }
  flags_.push_back(Flag{name, type, target, help, default_value});
}

void FlagSet::AddInt64(const std::string& name, int64_t* target,
                       const std::string& help) {
  Add(name, Type::kInt64, target, help, std::to_string(*target));
}

void FlagSet::AddDouble(const std::string& name, double* target,
                        const std::string& help) {
  Add(name, Type::kDouble, target, help, std::to_string(*target));
}

void FlagSet::AddString(const std::string& name, std::string* target,
                        const std::string& help) {
  Add(name, Type::kString, target, help, *target);
}

std::string FlagSet::Usage(const std::string& program_name) const {
  std::ostringstream out;
  out << "Usage: " << program_name << " [flags]\n";
  for (const Flag& flag : flags_) {
    out << "  --" << flag.name << " (default " << flag.default_value << "): "
        << flag.help << "\n";
  }
  return out.str();
}

void FlagSet::Parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string name;
    std::string value;
    if (!SplitFlag(arg, &name, &value)) {
      std::fprintf(stderr, "Unexpected argument: %s\n%s", arg.c_str(),
                   Usage(argv[0]).c_str());
      std::exit(EXIT_FAILURE);
    }
    if (name == "help") {
      std::fprintf(stdout, "%s", Usage(argv[0]).c_str());
      std::exit(EXIT_SUCCESS);
    }
    const Flag* match = nullptr;
    for (const Flag& flag : flags_) {
      if (flag.name == name) {
        match = &flag;
        break;
      }
    }
    if (match == nullptr) {
      std::fprintf(stderr, "Unknown flag: --%s\n%s", name.c_str(),
                   Usage(argv[0]).c_str());
      std::exit(EXIT_FAILURE);
    }
    bool ok = true;
    switch (match->type) {
      case Type::kInt64: {
        char* end = nullptr;
        const long long parsed = std::strtoll(value.c_str(), &end, 10);
        ok = !value.empty() && end != nullptr && *end == '\0';
        if (ok) *static_cast<int64_t*>(match->target) = parsed;
        break;
      }
      case Type::kDouble: {
        char* end = nullptr;
        const double parsed = std::strtod(value.c_str(), &end);
        ok = !value.empty() && end != nullptr && *end == '\0';
        if (ok) *static_cast<double*>(match->target) = parsed;
        break;
      }
      case Type::kString:
        *static_cast<std::string*>(match->target) = value;
        break;
    }
    if (!ok) {
      std::fprintf(stderr, "Bad value for --%s: '%s'\n%s", name.c_str(),
                   value.c_str(), Usage(argv[0]).c_str());
      std::exit(EXIT_FAILURE);
    }
  }
}

}  // namespace bitpush
