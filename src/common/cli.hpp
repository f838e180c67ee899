// Minimal `--key=value` command-line parsing for the benchmark binaries.
// Every bench accepts overrides such as --n=1000 or --episodes=150 so the
// quick default runs can be scaled up to the paper's full population sizes.
#pragma once

#include <map>
#include <string>

namespace iprism::common {

/// Parses `--key=value` and bare `--flag` arguments. Unknown positional
/// arguments raise std::invalid_argument so typos fail loudly, and so does a
/// numeric getter whose value is not wholly a number of its type (trailing
/// junk, a fraction for an int, out of range, or a non-finite double).
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  int get_int(const std::string& key, int fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace iprism::common
