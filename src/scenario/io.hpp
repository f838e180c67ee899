// Scenario suite (de)serialization. The paper publishes its 4810 generated
// scenarios as a benchmark for future safety research; this is the
// equivalent facility — suites round-trip through a plain CSV so they can
// be shipped, diffed, and re-run elsewhere.
//
// Format: header `typology,instance,<param>=value,...` — one row per
// scenario, hyperparameters as name=value pairs (order-independent).
#pragma once

#include <iosfwd>
#include <vector>

#include "scenario/spec.hpp"

namespace iprism::scenario {

/// Writes one spec per line.
void write_suite(std::ostream& os, const std::vector<ScenarioSpec>& specs);

/// Parses a suite written by write_suite. Throws std::invalid_argument on
/// malformed rows, unknown typology names, an instance that is not a
/// non-negative integer, or a hyperparameter value that is not a finite
/// number (every cell must parse completely).
std::vector<ScenarioSpec> read_suite(std::istream& is);

/// Typology from its table name (inverse of typology_name; checked).
Typology typology_from_name(std::string_view name);

}  // namespace iprism::scenario
