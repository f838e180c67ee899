// Telemetry compiled out (DESIGN.md §11): every IPRISM_* instrumentation
// macro must expand to nothing. This TU undefines IPRISM_ENABLE_TELEMETRY
// before its first include of the telemetry header, so every build checks
// the OFF expansion, whatever the IPRISM_ENABLE_TELEMETRY option says. It
// includes no other project header: an inline function compiled here with
// the macros off would differ from its definition in the library.
#undef IPRISM_ENABLE_TELEMETRY
#include "common/telemetry.hpp"

#include <gtest/gtest.h>

namespace iprism::common::telemetry {
namespace {

// Uses all five macros. Enabled, each one caches its registry lookup in a
// function-local static (and the span adds a timer with a destructor),
// neither of which a constant expression may contain. So the static_assert
// below compiles only if every macro vanishes.
constexpr int every_macro(int x) {
  IPRISM_COUNT("test.macro_counter");
  IPRISM_COUNT_ADD("test.macro_counter", x);
  IPRISM_GAUGE_SET("test.macro_gauge", x);
  IPRISM_HISTOGRAM_NS("test.macro_hist", x);
  IPRISM_SCOPED_TIMER("test.macro_span", "test");
  return x;
}
static_assert(every_macro(7) == 7);

TEST(TelemetryCompiledOut, MacrosRegisterNothing) {
  int x = 7;
  EXPECT_EQ(every_macro(x), 7);  // the same macros, run at run time
  auto& reg = MetricsRegistry::instance();
  EXPECT_EQ(reg.find_counter("test.macro_counter"), nullptr);
  EXPECT_EQ(reg.find_gauge("test.macro_gauge"), nullptr);
  EXPECT_EQ(reg.find_histogram("test.macro_hist"), nullptr);
  EXPECT_EQ(reg.find_histogram("test.macro_span"), nullptr);
}

}  // namespace
}  // namespace iprism::common::telemetry
