// GeomKernelIdentity (DESIGN.md §13): the staged batch kernels that power the
// reach-tube propagation — SoA bicycle step, footprint axes/AABBs,
// circumradius broad-phase cull — must be **bit-identical** to the scalar
// expressions they replace, and the whole batched pipeline must reproduce
// the scalar test oracle (tests/oracle.hpp) exactly. The oracle has no
// active set and no broad phase, so the suite also proves those two filters
// change no result. Every CI build (gcc release, gcc asan-ubsan, clang tsan)
// runs it, so a compiler that vectorizes the kernels is checked against the
// same scalar expressions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/reachtube.hpp"
#include "core/scene.hpp"
#include "core/sti.hpp"
#include "dynamics/bicycle.hpp"
#include "dynamics/state.hpp"
#include "dynamics/step_batch.hpp"
#include "geom/batch.hpp"
#include "geom/obb.hpp"
#include "geom/vec2.hpp"
#include "oracle.hpp"
#include "roadmap/ring_road.hpp"
#include "roadmap/straight_road.hpp"
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

TEST(GeomKernelIdentity, FootprintKernelsMatchOrientedBox) {
  const double hl = 4.5 / 2.0;
  const double hw = 2.0 / 2.0;
  const LaneSoa in = random_lanes(257, 22);
  const std::size_t n = in.x.size();

  std::vector<double> ax(n), ay(n);
  geom::footprint_axes(n, in.heading.data(), ax.data(), ay.data());

  std::vector<double> lo_x(n), lo_y(n), hi_x(n), hi_y(n);
  geom::footprint_aabbs(n, in.x.data(), in.y.data(), ax.data(), ay.data(), hl, hw,
                        lo_x.data(), lo_y.data(), hi_x.data(), hi_y.data());

  for (std::size_t i = 0; i < n; ++i) {
    const dynamics::VehicleState s{in.x[i], in.y[i], in.heading[i], in.speed[i]};
    const geom::OrientedBox box = dynamics::footprint(s, dynamics::Dimensions{4.5, 2.0});
    EXPECT_EQ(ax[i], box.axis_long().x) << "lane " << i;
    EXPECT_EQ(ay[i], box.axis_long().y) << "lane " << i;
    const geom::Aabb bb = box.aabb();
    EXPECT_EQ(lo_x[i], bb.lo.x) << "lane " << i;
    EXPECT_EQ(lo_y[i], bb.lo.y) << "lane " << i;
    EXPECT_EQ(hi_x[i], bb.hi.x) << "lane " << i;
    EXPECT_EQ(hi_y[i], bb.hi.y) << "lane " << i;
  }
}

TEST(GeomKernelIdentity, BroadPhaseCullMatchesScalarPredicate) {
  const LaneSoa in = random_lanes(511, 33);
  const std::size_t n = in.x.size();
  const geom::OrientedBox obstacle({120.0, 5.0}, 2.25, 1.0, 0.2);
  const double r = std::hypot(4.5 / 2.0, 2.0 / 2.0) + obstacle.circumradius();

  std::vector<unsigned char> mask(n);
  const std::size_t survivors = geom::broad_phase_cull(
      n, in.x.data(), in.y.data(), obstacle.center().x, obstacle.center().y, r * r,
      mask.data());

  std::size_t expected_survivors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // The scalar loop *skips* when norm_sq > r²; the mask is the complement.
    const geom::Vec2 center{in.x[i], in.y[i]};
    const bool skip = (obstacle.center() - center).norm_sq() > r * r;
    EXPECT_EQ(mask[i], skip ? 0 : 1) << "lane " << i;
    if (!skip) ++expected_survivors;
  }
  EXPECT_EQ(survivors, expected_survivors);
}

TEST(GeomKernelIdentity, WithAxisMatchesConstructor) {
  const LaneSoa in = random_lanes(128, 44);
  for (std::size_t i = 0; i < in.x.size(); ++i) {
    const geom::Vec2 center{in.x[i], in.y[i]};
    const geom::OrientedBox ref(center, 2.25, 1.0, in.heading[i]);
    const geom::OrientedBox fast = geom::OrientedBox::with_axis(
        center, 2.25, 1.0, in.heading[i], geom::heading_vec(in.heading[i]));
    EXPECT_EQ(fast.center().x, ref.center().x);
    EXPECT_EQ(fast.center().y, ref.center().y);
    EXPECT_EQ(fast.heading(), ref.heading());
    EXPECT_EQ(fast.axis_long().x, ref.axis_long().x);
    EXPECT_EQ(fast.axis_long().y, ref.axis_long().y);
    const auto a = fast.corners();
    const auto b = ref.corners();
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(a[k].x, b[k].x);
      EXPECT_EQ(a[k].y, b[k].y);
    }
  }
}

TEST(GeomKernelIdentity, ContainsBoxGeomAgreesWithContainsBox) {
  const roadmap::StraightRoad straight(3, 3.5, 200.0);
  const roadmap::RingRoad ring(2, 3.5, 30.0);
  const LaneSoa in = random_lanes(511, 55);
  for (const roadmap::DrivableMap* map :
       {static_cast<const roadmap::DrivableMap*>(&straight),
        static_cast<const roadmap::DrivableMap*>(&ring)}) {
    for (double margin : {0.0, 0.3, 5.0}) {
      for (std::size_t i = 0; i < in.x.size(); ++i) {
        const geom::Vec2 center{in.x[i], in.y[i]};
        const geom::OrientedBox box(center, 2.25, 1.0, in.heading[i]);
        EXPECT_EQ(map->contains_box(box, margin),
                  map->contains_box_geom(center, box.half_length(), box.half_width(),
                                         box.axis_long(), box.aabb(), margin))
            << "lane " << i << " margin " << margin;
      }
    }
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
  // route through the same batch path; both must still land on the oracle's
  // bits (replays against oracle tubes with the excluded actor dropped).
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

TEST(GeomKernelIdentity, StiBitIdenticalAcrossThreadsAndEngines) {
  // The §13 acceptance matrix: typologies × threads {0,2,4} must all produce
  // the from-scratch N+2 oracle's bit pattern, in every build that runs it.
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = oracle::typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
    const common::Seconds t0{world.time()};
    const core::StiResult reference =
        oracle::oracle_sti(world.map(), world.ego().state, t0, forecasts, {});

    for (int threads : {0, 2, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      core::ReachTubeParams params;
      params.num_threads = threads;
      const core::StiCalculator calc(params);
      core::RiskSession session;
      oracle::expect_bit_identical(
          reference, calc.compute(session, world.map(), world.ego().state, t0, forecasts));
    }
  }
}

}  // namespace
}  // namespace iprism
