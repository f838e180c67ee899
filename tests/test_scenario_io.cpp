#include "scenario/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "scenario/suite.hpp"

namespace iprism::scenario {
namespace {

TEST(ScenarioIo, TypologyNameRoundTrip) {
  for (Typology t : kAllTypologies) {
    EXPECT_EQ(typology_from_name(typology_name(t)), t);
  }
  EXPECT_THROW(typology_from_name("Banana"), std::invalid_argument);
}

TEST(ScenarioIo, SuiteRoundTripIsExact) {
  const ScenarioFactory factory;
  const auto suite = generate_suite(factory, Typology::kGhostCutIn, 20, 77);

  std::stringstream ss;
  write_suite(ss, suite.specs);
  const auto restored = read_suite(ss);

  ASSERT_EQ(restored.size(), suite.specs.size());
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i].typology, suite.specs[i].typology);
    EXPECT_EQ(restored[i].instance, suite.specs[i].instance);
    ASSERT_EQ(restored[i].hyperparams.size(), suite.specs[i].hyperparams.size());
    for (const auto& [key, value] : suite.specs[i].hyperparams) {
      // precision(17) makes doubles round-trip bit-exactly through text.
      EXPECT_DOUBLE_EQ(restored[i].param(key), value) << key;
    }
  }
}

TEST(ScenarioIo, RestoredSuiteBuildsIdenticalWorlds) {
  const ScenarioFactory factory;
  const auto suite = generate_suite(factory, Typology::kRearEnd, 5, 13);
  std::stringstream ss;
  write_suite(ss, suite.specs);
  const auto restored = read_suite(ss);

  for (std::size_t i = 0; i < restored.size(); ++i) {
    sim::World a = factory.build(suite.specs[i]);
    sim::World b = factory.build(restored[i]);
    for (int step = 0; step < 50; ++step) {
      a.step(dynamics::Control{0.0, 0.0});
      b.step(dynamics::Control{0.0, 0.0});
    }
    EXPECT_DOUBLE_EQ(a.ego().state.x, b.ego().state.x);
    EXPECT_EQ(a.collisions().size(), b.collisions().size());
  }
}

TEST(ScenarioIo, SkipsBlankLines) {
  std::stringstream ss("\nGhost Cut-in,3,a=1.5\n\n");
  const auto specs = read_suite(ss);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].instance, 3u);
  EXPECT_DOUBLE_EQ(specs[0].param("a"), 1.5);
}

TEST(ScenarioIo, RejectsMalformedRows) {
  {
    std::stringstream ss("Ghost Cut-in\n");  // no instance
    EXPECT_THROW(read_suite(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("Nope,0,a=1\n");  // unknown typology
    EXPECT_THROW(read_suite(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("Ghost Cut-in,0,missing_equals\n");
    EXPECT_THROW(read_suite(ss), std::invalid_argument);
  }
  // Every cell must parse completely: no non-finite or out-of-range values,
  // no trailing junk, no negative instance.
  for (const char* row : {"Ghost Cut-in,0,a=nan\n", "Ghost Cut-in,0,a=inf\n",
                          "Ghost Cut-in,0,a=1.5junk\n", "Ghost Cut-in,0,a=1e999\n",
                          "Ghost Cut-in,-1,a=1\n", "Ghost Cut-in,3x,a=1\n"}) {
    std::stringstream ss(row);
    EXPECT_THROW(read_suite(ss), std::invalid_argument) << row;
  }
}

}  // namespace
}  // namespace iprism::scenario
