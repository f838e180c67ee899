// Determinism suite for the parallel STI engine: with any number of worker
// threads, StiCalculator must produce *bit-identical* results to the serial
// path and to the from-scratch N+2 test oracle (tests/oracle.hpp). This holds
// by construction — every derived tube is an independent const read of the
// attributed base and results aggregate by index (DESIGN.md §8) — and this
// suite is the executable form of that argument, run across all five
// scenario typologies. It is also part of the CI tsan job, where the same
// runs double as a data-race check on the fan-out.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/monitor.hpp"
#include "core/reachtube.hpp"
#include "core/session.hpp"
#include "core/sti.hpp"
#include "dynamics/cvtr.hpp"
#include "oracle.hpp"
#include "roadmap/straight_road.hpp"
#include "scenario/factory.hpp"
#include "sim/world.hpp"

namespace iprism {
namespace {

/// 0 is the serial path; every count must land on the oracle's bits.
constexpr int kThreadCounts[] = {0, 2, 4, 8};

TEST(ParallelSti, BitIdenticalToSerialAcrossAllTypologies) {
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = oracle::typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
    const common::Seconds t0{world.time()};
    const core::StiResult reference =
        oracle::oracle_sti(world.map(), world.ego().state, t0, forecasts, {});

    for (int threads : kThreadCounts) {
      SCOPED_TRACE("num_threads=" + std::to_string(threads));
      core::ReachTubeParams params;
      params.num_threads = threads;
      const core::StiCalculator sti(params);
      core::RiskSession session;
      oracle::expect_bit_identical(
          reference, sti.compute(session, world.map(), world.ego().state, t0, forecasts));
    }
  }
}

TEST(ParallelSti, CombinedOnlyBitIdenticalToSerial) {
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = oracle::typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
    const common::Seconds t0{world.time()};
    const double reference =
        oracle::oracle_sti(world.map(), world.ego().state, t0, forecasts, {}).combined;

    core::RiskSession session;
    for (int threads : kThreadCounts) {
      core::ReachTubeParams params;
      params.num_threads = threads;
      const core::StiCalculator sti(params);
      EXPECT_EQ(reference, sti.combined(session, world.map(), world.ego().state, t0, forecasts))
          << "num_threads=" << threads;
    }
  }
}

TEST(ParallelSti, RepeatedParallelEvaluationsAreStable) {
  // Thread scheduling varies between runs; results must not.
  const scenario::ScenarioFactory factory;
  const sim::World world = oracle::typology_world(factory, scenario::Typology::kGhostCutIn);
  const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
  const common::Seconds t0{world.time()};
  const core::StiResult reference =
      oracle::oracle_sti(world.map(), world.ego().state, t0, forecasts, {});

  core::ReachTubeParams params;
  params.num_threads = 4;
  const core::StiCalculator sti(params);
  core::RiskSession session;
  for (int run = 0; run < 5; ++run) {
    SCOPED_TRACE("run=" + std::to_string(run));
    oracle::expect_bit_identical(
        reference, sti.compute(session, world.map(), world.ego().state, t0, forecasts));
  }
}

TEST(ParallelSti, MonitorAssessmentsUnchangedByThreads) {
  // End-to-end plumbing check: RiskMonitorParams::tube.num_threads must not
  // change any assessment the streaming monitor produces.
  const scenario::ScenarioFactory factory;
  core::RiskMonitorParams parallel_params;
  parallel_params.tube.num_threads = 4;
  const core::RiskMonitor serial;
  const core::RiskMonitor parallel(parallel_params);
  core::RiskSession serial_session;
  core::RiskSession parallel_session;

  sim::World world = oracle::typology_world(factory, scenario::Typology::kLeadSlowdown);
  for (int step = 0; step < 30; ++step) {
    world.step(dynamics::Control{0.0, 0.0});
    const auto a = serial.update(serial_session, world);
    const auto b = parallel.update(parallel_session, world);
    EXPECT_EQ(a.sti_combined, b.sti_combined) << "step " << step;
    EXPECT_EQ(a.level, b.level) << "step " << step;
    EXPECT_EQ(a.riskiest_actor, b.riskiest_actor) << "step " << step;
    EXPECT_EQ(a.riskiest_sti, b.riskiest_sti) << "step " << step;
  }
}

// --- CounterfactualDeltaIdentity (DESIGN.md §12) ---------------------------
//
// The shared-wavefront engine derives every counterfactual tube from one
// attributed base propagation by resumed replay. Its contract is *exact*
// identity — contents, cardinalities, SplitMix64 emission order — with a
// from-scratch propagation without the actor, for every typology, thread
// count, and scratch capacity. The reference is the scalar test oracle.
// These suites run in the CI tsan job (the replay fan-out is the concurrent
// workload).

TEST(CounterfactualDeltaIdentity, TubesBitIdenticalToFromScratchAcrossTypologies) {
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = oracle::typology_world(factory, typology);
    auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
    // An enlarged twin of the first actor under a new id: it blocks alone on
    // its fringe (so its counterfactual replays) and together with the first
    // actor everywhere else — kMulti records the replay must keep rejecting.
    ASSERT_FALSE(forecasts.empty());
    core::ActorForecast twin = forecasts.front();
    twin.id = 1000;
    twin.dims = dynamics::Dimensions{twin.dims.length + 2.0, twin.dims.width + 1.0};
    forecasts.push_back(twin);
    const auto& map = world.map();
    const auto& ego = world.ego().state;

    const core::ReachTubeParams params;
    const core::ReachTubeComputer rt(params);
    const auto obstacles = rt.sample_obstacles(forecasts, common::Seconds{world.time()});
    core::RiskSession session;
    const core::AttributedTube base = rt.compute_attributed(session, map, ego, obstacles);

    // Attribution only records — the base tube is the plain tube.
    const core::ReachTube all = oracle::oracle_tube(map, ego, obstacles, params);
    oracle::expect_same_tube(all, base.tube);
    oracle::expect_same_tube(all, rt.compute(session, map, ego, obstacles));

    // |T^{∅}| by replay vs the from-scratch no-obstacles tube.
    core::CounterfactualStats empty_stats;
    oracle::expect_same_tube(
        oracle::oracle_tube(map, ego, {}, params),
        rt.compute_unblocked(session, map, ego, obstacles, base, &empty_stats));

    // Every |T^{/i}| by replay and by compute(..., exclude) vs from-scratch.
    for (std::size_t i = 0; i < forecasts.size(); ++i) {
      SCOPED_TRACE("actor_index=" + std::to_string(i));
      const common::ActorId id{forecasts[i].id};
      const core::ReachTube without = oracle::oracle_tube(map, ego, obstacles, params, id);
      core::CounterfactualStats stats;
      oracle::expect_same_tube(
          without, rt.compute_counterfactual(session, map, ego, obstacles, base, i, &stats));
      oracle::expect_same_tube(without, rt.compute(session, map, ego, obstacles, id));
      // A free counterfactual must really have skipped re-expansion.
      if (stats.free) {
        EXPECT_EQ(stats.fresh_tests, 0u);
      }
    }
  }
}

TEST(CounterfactualDeltaIdentity, StiMatchesScratchEngineAcrossThreadsAndReserves) {
  // The reference is the oracle's from-scratch N+2 engine. Scratch capacity
  // is set by what a session has already propagated, so besides a fresh
  // session this runs on one whose hash grids and candidate buffers were
  // first grown past the default reserve by uniform-sampling and no-dedup
  // propagations — capacity must not perturb any result (DESIGN.md §9).
  const scenario::ScenarioFactory factory;
  for (scenario::Typology typology : scenario::kAllTypologies) {
    SCOPED_TRACE(std::string(scenario::typology_name(typology)));
    const sim::World world = oracle::typology_world(factory, typology);
    const auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);
    const auto& map = world.map();
    const auto& ego = world.ego().state;
    const common::Seconds t0{world.time()};
    const core::StiResult reference = oracle::oracle_sti(map, ego, t0, forecasts, {});

    core::RiskSession fresh;
    core::RiskSession grown;
    core::ReachTubeParams uniform;
    uniform.boundary_controls = false;
    core::ReachTubeParams nodedup;
    nodedup.dedup = false;
    for (const core::ReachTubeParams& p : {uniform, nodedup}) {
      const core::ReachTubeComputer rt(p);
      (void)rt.compute(grown, map, ego, rt.sample_obstacles(forecasts, t0));
    }

    for (core::RiskSession* session : {&fresh, &grown}) {
      for (int threads : {0, 2, 4}) {
        SCOPED_TRACE(std::string(session == &grown ? "grown" : "fresh") +
                     " session, num_threads=" + std::to_string(threads));
        core::ReachTubeParams params;
        params.num_threads = threads;
        const core::StiCalculator delta(params);
        oracle::expect_bit_identical(reference,
                                     delta.compute(*session, map, ego, t0, forecasts));
        EXPECT_EQ(reference.combined, delta.combined(*session, map, ego, t0, forecasts));
      }
    }
  }
}

TEST(CounterfactualDeltaIdentity, ActorThatBlocksNothingIsFree) {
  const scenario::ScenarioFactory factory;
  const sim::World world =
      oracle::typology_world(factory, scenario::Typology::kLeadSlowdown);
  auto forecasts = core::cvtr_forecasts(world, 3.0, 0.25);

  // A static actor far outside the ego's reachable disc: it can never reject
  // a candidate, so its counterfactual must be the base tube verbatim, with
  // zero re-expansion work.
  core::ActorForecast far_actor;
  far_actor.id = 9999;
  far_actor.dims = dynamics::Dimensions{4.5, 2.0};
  far_actor.trajectory.append(common::Seconds{world.time()},
                              dynamics::VehicleState{5000.0, 5000.0, 0.0, 0.0});
  forecasts.push_back(far_actor);
  const std::size_t far_index = forecasts.size() - 1;

  const core::ReachTubeParams params;
  const core::ReachTubeComputer rt(params);
  const auto obstacles = rt.sample_obstacles(forecasts, common::Seconds{world.time()});
  core::RiskSession session;
  const core::AttributedTube base =
      rt.compute_attributed(session, world.map(), world.ego().state, obstacles);
  ASSERT_TRUE(base.attribution.blocks_nothing(far_index));

  core::CounterfactualStats stats;
  const core::ReachTube cf = rt.compute_counterfactual(
      session, world.map(), world.ego().state, obstacles, base, far_index, &stats);
  EXPECT_TRUE(stats.free);
  EXPECT_EQ(stats.fresh_tests, 0u);
  EXPECT_EQ(stats.memo_hits, 0u);
  oracle::expect_same_tube(base.tube, cf);
  oracle::expect_same_tube(oracle::oracle_tube(world.map(), world.ego().state, obstacles,
                                               params, common::ActorId{far_actor.id}),
                           cf);
}

// --- Replay resume edge cases ----------------------------------------------
//
// A replay resumes the propagation at its divergence slice j*. Two resumes
// have no base slices to lean on: j* = 0, where the base rejected the seed
// itself, and a replay that outlives the base tube's early pinch-off, where
// the base produced no slice to copy and recorded no test past it.

/// A stationary actor: a one-sample forecast holds its pose for the horizon.
core::ActorForecast parked(int id, double x, double y, dynamics::Dimensions dims) {
  core::ActorForecast f;
  f.id = id;
  f.dims = dims;
  f.trajectory.append(common::Seconds{0.0}, dynamics::VehicleState{x, y, 0.0, 0.0});
  return f;
}

/// Every replay-derived tube of one scene against the oracle's from-scratch
/// tube: |T^{∅}| and each |T^{/i}|. The stats and tubes are handed back so
/// a test can assert which resume case its scene reached.
struct SceneReplays {
  core::AttributedTube base;
  core::ReachTube unblocked;
  core::CounterfactualStats unblocked_stats;
  std::vector<core::ReachTube> without;
  std::vector<core::CounterfactualStats> without_stats;
};

SceneReplays expect_replays_match_oracle(const roadmap::DrivableMap& map,
                                         const dynamics::VehicleState& ego,
                                         std::span<const core::ActorForecast> forecasts,
                                         const core::ReachTubeParams& params) {
  const core::ReachTubeComputer rt(params);
  const auto obstacles = rt.sample_obstacles(forecasts, common::Seconds{0.0});
  core::RiskSession session;
  SceneReplays out;
  out.base = rt.compute_attributed(session, map, ego, obstacles);
  oracle::expect_same_tube(oracle::oracle_tube(map, ego, obstacles, params), out.base.tube);
  out.unblocked =
      rt.compute_unblocked(session, map, ego, obstacles, out.base, &out.unblocked_stats);
  oracle::expect_same_tube(oracle::oracle_tube(map, ego, {}, params), out.unblocked);
  out.without_stats.resize(forecasts.size());
  for (std::size_t i = 0; i < forecasts.size(); ++i) {
    SCOPED_TRACE("actor_index=" + std::to_string(i));
    out.without.push_back(rt.compute_counterfactual(session, map, ego, obstacles, out.base,
                                                    i, &out.without_stats[i]));
    oracle::expect_same_tube(
        oracle::oracle_tube(map, ego, obstacles, params, common::ActorId{forecasts[i].id}),
        out.without.back());
  }
  return out;
}

TEST(CounterfactualDeltaIdentity, BlockedSeedReplaysMatchOracle) {
  const roadmap::StraightRoad map(3, 3.5, 400.0);
  const dynamics::VehicleState ego{50.0, 5.25, 0.0, 10.0};
  const dynamics::Dimensions car{4.5, 2.0};
  core::ReachTubeParams uniform;
  uniform.boundary_controls = false;
  for (const core::ReachTubeParams& params : {core::ReachTubeParams{}, uniform}) {
    SCOPED_TRACE(params.boundary_controls ? "boundary controls" : "uniform sampling");
    {
      // kSole seed: actor 1 overlaps the ego's nose; actor 2, parked ahead
      // in the right lane, stays in every replay's active set.
      SCOPED_TRACE("sole blocker");
      const std::vector<core::ActorForecast> forecasts = {parked(1, 53.0, 5.25, car),
                                                          parked(2, 70.0, 1.75, car)};
      const SceneReplays r = expect_replays_match_oracle(map, ego, forecasts, params);
      EXPECT_TRUE(r.base.tube.empty());
      EXPECT_EQ(r.base.attribution.first_sole_block[0], 0u);
      // The seed is rescued: both replays start at j* = 0 and grow a tube.
      EXPECT_EQ(r.without_stats[0].replay_from, 0u);
      EXPECT_FALSE(r.without_stats[0].free);
      EXPECT_FALSE(r.without[0].empty());
      EXPECT_EQ(r.unblocked_stats.replay_from, 0u);
      EXPECT_FALSE(r.unblocked_stats.free);
      EXPECT_FALSE(r.unblocked.empty());
      // Actor 2 never got to test a candidate: its counterfactual is free.
      EXPECT_TRUE(r.without_stats[1].free);
      EXPECT_TRUE(r.without[1].empty());
    }
    {
      // kMulti seed: both actors overlap the ego, so removing either one
      // leaves the seed blocked — per-actor counterfactuals are free and
      // empty — while |T^{∅}| lifts both and rescues it.
      SCOPED_TRACE("two blockers");
      const std::vector<core::ActorForecast> forecasts = {parked(1, 53.0, 5.25, car),
                                                          parked(2, 47.0, 5.25, car)};
      const SceneReplays r = expect_replays_match_oracle(map, ego, forecasts, params);
      EXPECT_TRUE(r.base.tube.empty());
      EXPECT_EQ(r.base.attribution.first_actor_block, 0u);
      for (std::size_t i = 0; i < forecasts.size(); ++i) {
        EXPECT_TRUE(r.without_stats[i].free) << "actor_index=" << i;
        EXPECT_TRUE(r.without[i].empty()) << "actor_index=" << i;
      }
      EXPECT_EQ(r.unblocked_stats.replay_from, 0u);
      EXPECT_FALSE(r.unblocked.empty());
    }
  }
}

TEST(CounterfactualDeltaIdentity, ReplayPastEarlyPinchOffMatchesOracle) {
  // A parked wall across all three lanes, 20 m ahead of an ego that cannot
  // brake (the default boundary set is {0, a_max}): every route ends at the
  // wall, so the base tube pinches off well before the 3 s horizon.
  const roadmap::StraightRoad map(3, 3.5, 400.0);
  const dynamics::VehicleState ego{50.0, 5.25, 0.0, 10.0};
  const dynamics::Dimensions block{4.5, 3.5};
  const std::vector<core::ActorForecast> forecasts = {
      parked(1, 70.0, 1.75, block), parked(2, 70.0, 5.25, block),
      parked(3, 70.0, 8.75, block)};
  const core::ReachTubeParams params;
  const SceneReplays r = expect_replays_match_oracle(map, ego, forecasts, params);

  const std::size_t base_slices = oracle::produced_slices(r.base.tube);
  ASSERT_GT(base_slices, 1u);
  ASSERT_LT(base_slices, r.base.tube.slices.size());
  // Lifting the middle block opens the ego's own lane: that replay resumes
  // before the pinch-off and keeps propagating past the base's last slice.
  const std::size_t middle = 1;
  EXPECT_FALSE(r.without_stats[middle].free);
  EXPECT_LT(r.without_stats[middle].replay_from, base_slices);
  EXPECT_GT(oracle::produced_slices(r.without[middle]), base_slices);
  EXPECT_GT(oracle::produced_slices(r.unblocked), base_slices);
}

TEST(CounterfactualDeltaIdentity, MonitorAssessmentsUnchangedByEngine) {
  // End-to-end invariance: the monitor's STI and riskiest-actor attribution
  // must be exactly what the oracle's from-scratch engine computes for the
  // same tick. The level is a function of the STI sequence, so matching STI
  // pins it too.
  const scenario::ScenarioFactory factory;
  const core::RiskMonitorParams params;
  const core::RiskMonitor monitor(params);
  core::RiskSession session;
  const core::ReachTubeParams& tube = params.tube;

  sim::World world = oracle::typology_world(factory, scenario::Typology::kGhostCutIn);
  bool elevated_seen = false;
  for (int step = 0; step < 30; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    world.step(dynamics::Control{0.0, 0.0});
    const auto a = monitor.update(session, world);
    const auto forecasts = core::cvtr_forecasts(world, tube.horizon, tube.dt);
    const core::StiResult reference = oracle::oracle_sti(
        world.map(), world.ego().state, common::Seconds{world.time()}, forecasts, tube);
    const auto riskiest = core::riskiest_actor_of(reference);
    EXPECT_EQ(a.sti_combined, reference.combined);
    // At kCaution and above the monitor ran the per-actor pass this tick.
    if (a.level >= core::RiskLevel::kCaution) {
      elevated_seen = true;
      EXPECT_EQ(a.riskiest_actor.has_value(), riskiest.has_value());
    }
    if (a.riskiest_actor) {
      ASSERT_TRUE(riskiest.has_value());
      EXPECT_EQ(*a.riskiest_actor, riskiest->first);
      EXPECT_EQ(a.riskiest_sti, riskiest->second);
    }
  }
  EXPECT_TRUE(elevated_seen) << "scenario never elevated: attribution went unchecked";
}

TEST(ParallelSti, NumThreadsValidation) {
  core::ReachTubeParams params;
  params.num_threads = -1;
  EXPECT_THROW(core::ReachTubeComputer::validate(params), std::invalid_argument);
  EXPECT_THROW(core::StiCalculator{params}, std::invalid_argument);
}

}  // namespace
}  // namespace iprism
