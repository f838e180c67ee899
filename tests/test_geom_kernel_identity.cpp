// GeomKernelIdentity (DESIGN.md §13): the SoA batch step kernel that powers
// the reach-tube propagation must be **bit-identical** to the scalar bicycle
// model it replaces, and the whole staged pipeline must reproduce the scalar
// test oracle (tests/oracle.hpp) exactly. The oracle has no lane queue, no
// active set and no broad phase, so the suite also proves those change no
// result. Every CI build (gcc release, gcc asan-ubsan, clang tsan) runs it,
// so a compiler that vectorizes the kernel is checked against the same
// scalar expressions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/reachtube.hpp"
#include "core/scene.hpp"
#include "dynamics/bicycle.hpp"
#include "dynamics/state.hpp"
#include "dynamics/step_batch.hpp"
#include "oracle.hpp"
#include "scenario/factory.hpp"
#include "scenario/spec.hpp"
#include "sim/world.hpp"

namespace iprism {
namespace {

// --- random lane material ---------------------------------------------------

struct LaneSoa {
  std::vector<double> x, y, heading, speed, accel, tan_steer, steer;
};

/// Random parent states + controls spanning the tube's operating envelope,
/// plus hand-picked edge lanes (standstill, brake-to-stop inside the step,
/// heading near the ±pi wrap).
LaneSoa random_lanes(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  LaneSoa lanes;
  for (std::size_t i = 0; i < n; ++i) {
    lanes.x.push_back(rng.uniform(-50.0, 400.0));
    lanes.y.push_back(rng.uniform(-10.0, 20.0));
    lanes.heading.push_back(rng.uniform(-3.14159, 3.14159));
    lanes.speed.push_back(rng.uniform(0.0, 40.0));
    lanes.accel.push_back(rng.uniform(-6.0, 3.0));
    lanes.steer.push_back(rng.uniform(-0.35, 0.35));
  }
  // Edge lanes: already stopped, stopping exactly mid-step, wrap boundary.
  lanes.x.insert(lanes.x.end(), {0.0, 10.0, 20.0});
  lanes.y.insert(lanes.y.end(), {0.0, 1.0, 2.0});
  lanes.heading.insert(lanes.heading.end(), {0.0, 0.1, 3.14159265358979});
  lanes.speed.insert(lanes.speed.end(), {0.0, 0.5, 10.0});
  lanes.accel.insert(lanes.accel.end(), {-6.0, -6.0, 0.0});
  lanes.steer.insert(lanes.steer.end(), {0.0, -0.35, 0.35});
  for (double phi : lanes.steer) lanes.tan_steer.push_back(std::tan(phi));
  return lanes;
}

TEST(GeomKernelIdentity, StepBatchMatchesScalarModel) {
  const dynamics::BicycleModel model(common::Meters{2.7}, common::MetersPerSec{40.0});
  const double dt = 0.25;
  const LaneSoa in = random_lanes(257, 11);
  const std::size_t n = in.x.size();

  std::vector<double> nx(n), ny(n), nh(n), nv(n);
  dynamics::step_batch(
      n,
      {in.x.data(), in.y.data(), in.heading.data(), in.speed.data(), in.accel.data(),
       in.tan_steer.data()},
      {nx.data(), ny.data(), nh.data(), nv.data()}, dt, model.wheelbase().value(),
      model.max_speed().value());

  for (std::size_t i = 0; i < n; ++i) {
    const dynamics::VehicleState s{in.x[i], in.y[i], in.heading[i], in.speed[i]};
    const dynamics::VehicleState ref =
        model.step(s, {in.accel[i], in.steer[i]}, common::Seconds{dt});
    // Exact == on purpose: the contract is bit-identity, not closeness.
    EXPECT_EQ(nx[i], ref.x) << "lane " << i;
    EXPECT_EQ(ny[i], ref.y) << "lane " << i;
    EXPECT_EQ(nh[i], ref.heading) << "lane " << i;
    EXPECT_EQ(nv[i], ref.speed) << "lane " << i;
  }
}

// --- full-pipeline identity against the scalar oracle ------------------------

TEST(GeomKernelIdentity, FullTubeMatchesScalarReferenceAcrossTypologies) {
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = oracle::typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
    core::RiskSession session;

    for (bool dedup : {true, false}) {
      for (bool boundary_controls : {true, false}) {
        SCOPED_TRACE("dedup=" + std::to_string(dedup) +
                     " boundary_controls=" + std::to_string(boundary_controls));
        core::ReachTubeParams params;
        params.dedup = dedup;
        params.boundary_controls = boundary_controls;
        const core::ReachTubeComputer rt(params);
        const auto obstacles =
            rt.sample_obstacles(forecasts, common::Seconds{world.time()});
        oracle::expect_same_tube(
            oracle::oracle_tube(world.map(), world.ego().state, obstacles, params),
            rt.compute(session, world.map(), world.ego().state, obstacles));
      }
    }
  }
}

TEST(GeomKernelIdentity, AttributedAndReplayMatchScalarReference) {
  // The attributed base propagation and the resumed counterfactual replays
  // route through the same staged loop; both must still land on the
  // oracle's bits (replays against oracle tubes with the excluded actor
  // dropped).
  const scenario::ScenarioFactory factory;
  const sim::World world =
      oracle::typology_world(factory, scenario::Typology::kLeadSlowdown);
  const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

  const core::ReachTubeParams params;
  const core::ReachTubeComputer rt(params);
  const auto obstacles = rt.sample_obstacles(forecasts, common::Seconds{world.time()});
  core::RiskSession session;
  const core::AttributedTube base =
      rt.compute_attributed(session, world.map(), world.ego().state, obstacles);
  oracle::expect_same_tube(
      oracle::oracle_tube(world.map(), world.ego().state, obstacles, params), base.tube);

  oracle::expect_same_tube(
      oracle::oracle_tube(world.map(), world.ego().state, {}, params),
      rt.compute_unblocked(session, world.map(), world.ego().state, obstacles, base));

  for (std::size_t i = 0; i < obstacles.size(); ++i) {
    SCOPED_TRACE("actor_index=" + std::to_string(i));
    oracle::expect_same_tube(
        oracle::oracle_tube(world.map(), world.ego().state, obstacles, params,
                            obstacles[i].actor_id),
        rt.compute_counterfactual(session, world.map(), world.ego().state, obstacles, base,
                                  i));
  }
}

}  // namespace
}  // namespace iprism
