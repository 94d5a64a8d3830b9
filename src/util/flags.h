// Minimal command-line flag parsing for the benchmark and example binaries.
//
// Flags are written as --name=value. Unrecognized flags abort with a usage
// message so typos in experiment sweeps are caught rather than silently
// running the default configuration.
//
// Example:
//   FlagSet flags;
//   int64_t n = 10000;
//   double eps = 1.0;
//   flags.AddInt64("n", &n, "number of clients");
//   flags.AddDouble("epsilon", &eps, "LDP epsilon (0 disables noise)");
//   flags.Parse(argc, argv);

#ifndef BITPUSH_UTIL_FLAGS_H_
#define BITPUSH_UTIL_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bitpush {

class FlagSet {
 public:
  FlagSet() = default;

  FlagSet(const FlagSet&) = delete;
  FlagSet& operator=(const FlagSet&) = delete;

  // Registers a flag bound to `target`, which must outlive Parse(). The
  // current value of `target` is the default.
  void AddInt64(const std::string& name, int64_t* target,
                const std::string& help);
  void AddDouble(const std::string& name, double* target,
                 const std::string& help);
  void AddString(const std::string& name, std::string* target,
                 const std::string& help);

  // Parses argv, writing values into the bound targets. Aborts with a usage
  // message on an unknown flag or a malformed value. `--help` prints usage
  // and exits successfully.
  void Parse(int argc, char** argv) const;

  // Renders the usage message (flag names, types, defaults, help strings).
  std::string Usage(const std::string& program_name) const;

 private:
  enum class Type { kInt64, kDouble, kString };

  struct Flag {
    std::string name;
    Type type;
    void* target;
    std::string help;
    std::string default_value;
  };

  void Add(const std::string& name, Type type, void* target,
           const std::string& help, const std::string& default_value);

  std::vector<Flag> flags_;
};

}  // namespace bitpush

#endif  // BITPUSH_UTIL_FLAGS_H_
