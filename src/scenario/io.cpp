#include "scenario/io.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <system_error>

#include "common/check.hpp"

namespace iprism::scenario {
namespace {

// True iff all of `text` parses as one T. std::stod / std::stoull would stop
// at the first bad character, wrap a negative instance to 2^64 - 1, and
// throw std::out_of_range rather than std::invalid_argument.
template <typename T>
bool parse_whole(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && stop == end;
}

}  // namespace

Typology typology_from_name(std::string_view name) {
  for (Typology t : kAllTypologies) {
    if (typology_name(t) == name) return t;
  }
  IPRISM_CHECK(false, "typology_from_name: unknown typology '" + std::string(name) + "'");
  std::abort();  // unreachable; IPRISM_CHECK throws
}

void write_suite(std::ostream& os, const std::vector<ScenarioSpec>& specs) {
  os.precision(17);
  for (const ScenarioSpec& spec : specs) {
    os << typology_name(spec.typology) << ',' << spec.instance;
    for (const auto& [key, value] : spec.hyperparams) {
      os << ',' << key << '=' << value;
    }
    os << '\n';
  }
}

std::vector<ScenarioSpec> read_suite(std::istream& is) {
  std::vector<ScenarioSpec> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string cell;

    ScenarioSpec spec;
    IPRISM_CHECK(std::getline(row, cell, ','), "read_suite: missing typology column");
    spec.typology = typology_from_name(cell);
    IPRISM_CHECK(std::getline(row, cell, ','), "read_suite: missing instance column");
    IPRISM_CHECK(parse_whole(cell, spec.instance),
                 "read_suite: instance '" + cell + "' is not a non-negative integer");

    while (std::getline(row, cell, ',')) {
      const auto eq = cell.find('=');
      IPRISM_CHECK(eq != std::string::npos && eq > 0,
                   "read_suite: malformed hyperparameter cell '" + cell + "'");
      const std::string_view text = std::string_view(cell).substr(eq + 1);
      double value = 0.0;
      IPRISM_CHECK(parse_whole(text, value) && std::isfinite(value),
                   "read_suite: hyperparameter cell '" + cell + "' is not a finite number");
      spec.hyperparams[cell.substr(0, eq)] = value;
    }
    out.push_back(std::move(spec));
  }
  return out;
}

}  // namespace iprism::scenario
