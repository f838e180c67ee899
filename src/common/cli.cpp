#include "common/cli.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>

namespace iprism::common {

namespace {

[[noreturn]] void reject(const std::string& key, const std::string& text, const char* what) {
  throw std::invalid_argument("--" + key + " expects " + what + ", got '" + text + "'");
}

/// Parses the whole of `text` as a T, or rejects it naming the flag:
/// trailing junk ("12abc", "2s"), a fraction where an int is expected
/// ("3.9", "1e3") and out-of-range values never shrink silently to a prefix
/// or a clamped number.
template <typename T>
T parse_whole(const std::string& key, const std::string& text, const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) reject(key, text, what);
  return value;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg.substr(2)] = "1";
    } else {
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

bool CliArgs::has(const std::string& key) const { return values_.count(key) > 0; }

int CliArgs::get_int(const std::string& key, int fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_whole<int>(key, it->second, "an integer");
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const double value = parse_whole<double>(key, it->second, "a finite number");
  if (!std::isfinite(value)) reject(key, it->second, "a finite number");
  return value;
}

std::string CliArgs::get_string(const std::string& key, const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

}  // namespace iprism::common
