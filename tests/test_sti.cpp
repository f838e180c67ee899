#include "core/sti.hpp"

#include "common/units.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "dynamics/cvtr.hpp"
#include "roadmap/straight_road.hpp"

namespace iprism::core {
namespace {

using namespace iprism::common::literals;

std::shared_ptr<roadmap::StraightRoad> test_map() {
  return std::make_shared<roadmap::StraightRoad>(3, 3.5, 500.0);
}

dynamics::VehicleState ego_state(double x = 50.0, double y = 5.25, double speed = 8.0) {
  dynamics::VehicleState s;
  s.x = x;
  s.y = y;
  s.speed = speed;
  return s;
}

ActorForecast actor(int id, double x, double y, double speed, double heading = 0.0) {
  dynamics::CvtrPredictor pred;
  dynamics::VehicleState s;
  s.x = x;
  s.y = y;
  s.speed = speed;
  s.heading = heading;
  return {id, pred.predict(s, 0.0_s, 4.0_s, 0.25_s), {4.5, 2.0}};
}

TEST(Sti, NoActorsMeansZeroRisk) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, {});
  EXPECT_DOUBLE_EQ(r.combined, 0.0);
  EXPECT_TRUE(r.per_actor.empty());
  EXPECT_DOUBLE_EQ(r.volume_all, r.volume_empty);
}

TEST(Sti, StoppedLeadImposesRisk) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {actor(1, 62.0, 5.25, 0.0)};
  const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, forecasts);
  EXPECT_GT(r.combined, 0.05);
  ASSERT_EQ(r.per_actor.size(), 1u);
  EXPECT_EQ(r.per_actor[0].first, 1);
  EXPECT_GT(r.per_actor[0].second, 0.05);
}

TEST(Sti, SingleActorCounterfactualMatchesCombined) {
  // With exactly one actor, removing it recovers the empty tube, so
  // STI_actor == STI_combined (Eqs. 4 and 5 coincide).
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {actor(1, 64.0, 5.25, 2.0)};
  const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, forecasts);
  EXPECT_NEAR(r.per_actor[0].second, r.combined, 1e-12);
}

TEST(Sti, ActorBehindOnOtherLaneIsZero) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {actor(1, 10.0, 1.75, 3.0)};
  const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, forecasts);
  EXPECT_DOUBLE_EQ(r.combined, 0.0);
  EXPECT_DOUBLE_EQ(r.per_actor[0].second, 0.0);
}

TEST(Sti, FullBlockadeApproachesOne) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  // Stopped wall directly ahead across all three lanes, ego fast.
  const std::vector<ActorForecast> wall = {
      actor(1, 58.0, 1.75, 0.0), actor(2, 58.0, 5.25, 0.0), actor(3, 58.0, 8.75, 0.0)};
  const StiResult r = sti.compute(session, *map, ego_state(50.0, 5.25, 14.0), 0.0_s, wall);
  EXPECT_GT(r.combined, 0.6);
}

TEST(Sti, CollisionStateIsMaximalRisk) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> overlapping = {actor(1, 52.0, 5.25, 0.0)};
  const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, overlapping);
  EXPECT_DOUBLE_EQ(r.combined, 1.0);
}

TEST(Sti, ValuesAlwaysInUnitRangeProperty) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  common::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ActorForecast> forecasts;
    const int n = rng.uniform_int(1, 4);
    for (int i = 0; i < n; ++i) {
      forecasts.push_back(actor(i, 50.0 + rng.uniform(-30.0, 50.0),
                                rng.uniform(1.0, 9.5), rng.uniform(0.0, 12.0),
                                rng.uniform(-0.3, 0.3)));
    }
    const auto ego = ego_state(50.0, rng.uniform(2.0, 9.0), rng.uniform(0.0, 14.0));
    const StiResult r = sti.compute(session, *map, ego, 0.0_s, forecasts);
    ASSERT_GE(r.combined, 0.0);
    ASSERT_LE(r.combined, 1.0);
    for (const auto& [id, v] : r.per_actor) {
      ASSERT_GE(v, 0.0);
      ASSERT_LE(v, 1.0);
    }
  }
}

TEST(Sti, CombinedOnlyAgreesWithFullComputation) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {actor(1, 62.0, 5.25, 0.0),
                                                actor(2, 70.0, 1.75, 4.0)};
  const StiResult full = sti.compute(session, *map, ego_state(), 0.0_s, forecasts);
  const double fast = sti.combined(session, *map, ego_state(), 0.0_s, forecasts);
  EXPECT_DOUBLE_EQ(full.combined, fast);
}

TEST(Sti, OffRoadEgoReportsZeroSafely) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> forecasts = {actor(1, 62.0, 5.25, 0.0)};
  const StiResult r = sti.compute(session, *map, ego_state(50.0, 40.0, 8.0), 0.0_s, forecasts);
  EXPECT_DOUBLE_EQ(r.combined, 0.0);  // |T^null| == 0: undefined -> 0, no throw
  EXPECT_DOUBLE_EQ(r.volume_empty, 0.0);
}

TEST(Sti, MaxActorStiHelper) {
  StiResult r;
  EXPECT_DOUBLE_EQ(r.max_actor_sti(), 0.0);
  r.per_actor = {{1, 0.2}, {2, 0.7}, {3, 0.1}};
  EXPECT_DOUBLE_EQ(r.max_actor_sti(), 0.7);
}

TEST(Sti, SymmetricThreatsScoreEqually) {
  // Two actors mirrored about the ego lane centre must receive identical
  // STI (the tube and the counterfactuals are symmetric).
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> pair = {actor(1, 62.0, 5.25 - 3.5, 2.0),
                                           actor(2, 62.0, 5.25 + 3.5, 2.0)};
  const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, pair);
  ASSERT_EQ(r.per_actor.size(), 2u);
  EXPECT_NEAR(r.per_actor[0].second, r.per_actor[1].second, 0.03);
}

TEST(Sti, CombinedAtLeastAsLargeAsBestActor) {
  // Removing *all* actors frees at least as much tube volume as removing
  // any single one, so combined >= max per-actor (up to sampling noise).
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  common::Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<ActorForecast> forecasts;
    for (int i = 0; i < 3; ++i) {
      forecasts.push_back(actor(i, 50.0 + rng.uniform(5.0, 30.0),
                                rng.uniform(1.5, 9.0), rng.uniform(0.0, 6.0)));
    }
    const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, forecasts);
    ASSERT_GE(r.combined, r.max_actor_sti() - 0.05);
  }
}

TEST(Sti, NearerThreatScoresHigher) {
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> near_f = {actor(1, 60.0, 5.25, 0.0)};
  const std::vector<ActorForecast> far_f = {actor(1, 80.0, 5.25, 0.0)};
  const auto near_r = sti.compute(session, *map, ego_state(), 0.0_s, near_f);
  const auto far_r = sti.compute(session, *map, ego_state(), 0.0_s, far_f);
  EXPECT_GT(near_r.combined, far_r.combined);
}

TEST(Sti, DuplicateValidActorIdsRejected) {
  // Eq. 4 removes actor i; the engine removes obstacle index i. The two
  // agree only when each valid id appears once, so a repeat is rejected at
  // the boundary by both entry points.
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const std::vector<ActorForecast> twins = {actor(4, 62.0, 5.25, 0.0),
                                            actor(4, 70.0, 1.75, 4.0)};
  EXPECT_THROW(sti.compute(session, *map, ego_state(), 0.0_s, twins), std::invalid_argument);
  EXPECT_THROW(sti.combined(session, *map, ego_state(), 0.0_s, twins), std::invalid_argument);
}

TEST(Sti, NonFiniteInputsRejected) {
  // A NaN fails every comparison, so it slipped past the map, disc and
  // broad-phase tests and came out as a confident STI: 0 for a NaN ego, 1
  // for a forecast at x = NaN. Both entry points reject it instead.
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<ActorForecast> parked_lead = {actor(1, 62.0, 5.25, 0.0)};
  dynamics::VehicleState inf_heading = ego_state();
  inf_heading.heading = std::numeric_limits<double>::infinity();
  for (const dynamics::VehicleState& ego : {ego_state(nan), ego_state(50.0, 5.25, nan),
                                           inf_heading}) {
    EXPECT_THROW(sti.compute(session, *map, ego, 0.0_s, parked_lead), std::invalid_argument);
    EXPECT_THROW(sti.combined(session, *map, ego, 0.0_s, parked_lead), std::invalid_argument);
  }
  const std::vector<ActorForecast> nan_lead = {actor(1, nan, 5.25, 0.0)};
  EXPECT_THROW(sti.compute(session, *map, ego_state(), 0.0_s, nan_lead), std::invalid_argument);
  EXPECT_THROW(sti.combined(session, *map, ego_state(), 0.0_s, nan_lead),
               std::invalid_argument);
}

TEST(Sti, RepeatedAnonymousActorsAcceptedWithZeroSti) {
  // ActorId::none() may repeat: an anonymous actor cannot be excluded, so
  // its counterfactual is the full tube and its STI is 0 — while it still
  // counts toward the combined value.
  const StiCalculator sti;
  RiskSession session;
  const auto map = test_map();
  const int anonymous = common::ActorId::none().value();
  const std::vector<ActorForecast> forecasts = {actor(anonymous, 62.0, 5.25, 0.0),
                                                actor(anonymous, 62.0, 1.75, 0.0),
                                                actor(3, 62.0, 8.75, 0.0)};
  const StiResult r = sti.compute(session, *map, ego_state(), 0.0_s, forecasts);
  ASSERT_EQ(r.per_actor.size(), 3u);
  EXPECT_EQ(r.per_actor[0], std::make_pair(anonymous, 0.0));
  EXPECT_EQ(r.per_actor[1], std::make_pair(anonymous, 0.0));
  EXPECT_EQ(r.per_actor[2].first, 3);
  EXPECT_GT(r.combined, 0.05);
  EXPECT_EQ(r.combined, sti.combined(session, *map, ego_state(), 0.0_s, forecasts));
}

}  // namespace
}  // namespace iprism::core
