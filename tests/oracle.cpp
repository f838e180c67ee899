#include "oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/rng.hpp"
#include "dynamics/bicycle.hpp"
#include "dynamics/trajectory.hpp"
#include "geom/obb.hpp"

namespace iprism::oracle {
namespace {

/// The (x, y) epsilon cell of a state, packed into one key (coordinates
/// offset to stay positive on any realistic map).
std::uint64_t cell_key(const dynamics::VehicleState& s, double inv_cell) {
  const auto ix = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::floor(s.x * inv_cell)) + (1LL << 30));
  const auto iy = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::floor(s.y * inv_cell)) + (1LL << 30));
  return (ix << 32) | (iy & 0xFFFFFFFFULL);
}

/// The four extreme representatives of one epsilon cell, as slots into the
/// slice's candidate list. min_v < 0 marks a dead cell: its first candidate
/// failed, so the whole cell is skipped for the rest of the slice.
struct CellReps {
  int min_v = -1, max_v = -1, min_h = -1, max_h = -1;
  double v_lo = 0.0, v_hi = 0.0, h_lo = 0.0, h_hi = 0.0;
};

/// A state survives when its footprint stays on the drivable area and
/// intersects no obstacle of this slice — every obstacle is tested.
bool survives(const roadmap::DrivableMap& map, const dynamics::VehicleState& s,
              std::span<const core::ObstacleTimeline> obstacles, std::size_t slice,
              const core::ReachTubeParams& params, common::ActorId exclude) {
  const geom::OrientedBox ego_box = dynamics::footprint(s, params.ego_dims);
  if (!map.contains_box(ego_box, params.map_margin)) return false;
  for (const core::ObstacleTimeline& obs : obstacles) {
    if (exclude.valid() && obs.actor_id == exclude) continue;
    if (ego_box.intersects(obs.by_slice[slice])) return false;
  }
  return true;
}

/// The boundary control set: {0, a_max} (plus a_min when braking is on)
/// crossed with {phi_min, 0, phi_max}.
std::vector<dynamics::Control> boundary_controls(const core::ReachTubeParams& params) {
  const auto& lim = params.limits;
  std::vector<double> accels = {0.0, lim.accel_max};
  if (params.include_braking_boundary) accels.insert(accels.begin(), lim.accel_min);
  std::vector<dynamics::Control> out;
  for (double a : accels) {
    for (double phi : {lim.steer_min, 0.0, lim.steer_max}) out.push_back({a, phi});
  }
  return out;
}

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

}  // namespace

core::ReachTube oracle_tube(const roadmap::DrivableMap& map, const dynamics::VehicleState& ego,
                            std::span<const core::ObstacleTimeline> obstacles,
                            const core::ReachTubeParams& params, common::ActorId exclude) {
  const auto slices = static_cast<std::size_t>(std::lround(params.horizon / params.dt));
  const dynamics::BicycleModel model(common::Meters{params.wheelbase});
  const common::Seconds dt{params.dt};
  const double inv_cell = 1.0 / params.cell_size;
  const std::vector<dynamics::Control> boundary = boundary_controls(params);
  const auto& lim = params.limits;

  core::ReachTube tube;
  tube.slices.assign(slices + 1, {});
  if (!survives(map, ego, obstacles, 0, params, exclude)) return tube;
  tube.slices[0].push_back(ego);
  std::size_t volume_cells = 1;  // the seed's own cell
  common::Rng rng(params.sample_seed);

  for (std::size_t slice = 1; slice <= slices; ++slice) {
    std::vector<dynamics::VehicleState> candidates;
    std::map<std::uint64_t, CellReps> cells;  // dedup on
    std::vector<std::uint64_t> occupied;      // dedup off: cell of every survivor

    const auto try_control = [&](const dynamics::VehicleState& s, const dynamics::Control& u) {
      if (candidates.size() >= params.max_states_per_slice) return;
      const dynamics::VehicleState ns = model.step(s, u, dt);
      const std::uint64_t key = cell_key(ns, inv_cell);
      if (!params.dedup) {
        if (!survives(map, ns, obstacles, slice, params, exclude)) return;
        candidates.push_back(ns);
        occupied.push_back(key);
        return;
      }
      const auto [it, inserted] = cells.try_emplace(key);
      CellReps& reps = it->second;
      if (inserted) {
        if (!survives(map, ns, obstacles, slice, params, exclude)) return;
        const int idx = static_cast<int>(candidates.size());
        candidates.push_back(ns);
        reps = {idx, idx, idx, idx, ns.speed, ns.speed, ns.heading, ns.heading};
        return;
      }
      if (reps.min_v < 0) return;
      const bool improves = ns.speed < reps.v_lo || ns.speed > reps.v_hi ||
                            ns.heading < reps.h_lo || ns.heading > reps.h_hi;
      if (!improves || !survives(map, ns, obstacles, slice, params, exclude)) return;
      const int idx = static_cast<int>(candidates.size());
      candidates.push_back(ns);
      if (ns.speed < reps.v_lo) {
        reps.v_lo = ns.speed;
        reps.min_v = idx;
      }
      if (ns.speed > reps.v_hi) {
        reps.v_hi = ns.speed;
        reps.max_v = idx;
      }
      if (ns.heading < reps.h_lo) {
        reps.h_lo = ns.heading;
        reps.min_h = idx;
      }
      if (ns.heading > reps.h_hi) {
        reps.h_hi = ns.heading;
        reps.max_h = idx;
      }
    };

    for (const dynamics::VehicleState& s : tube.slices[slice - 1]) {
      for (const dynamics::Control& u : boundary) try_control(s, u);
      if (params.boundary_controls) continue;
      // Uniform samples up to N per parent; the draws never depend on test
      // outcomes (a capped candidate still draws).
      for (auto n = boundary.size(); n < static_cast<std::size_t>(params.uniform_samples); ++n) {
        const double a = rng.uniform(lim.accel_min, lim.accel_max);
        const double phi = rng.uniform(lim.steer_min, lim.steer_max);
        try_control(s, {a, phi});
      }
    }

    auto& next = tube.slices[slice];
    if (params.dedup) {
      std::set<int> kept;
      for (const auto& [key, reps] : cells) {
        if (reps.min_v < 0) continue;
        ++volume_cells;
        kept.insert({reps.min_v, reps.max_v, reps.min_h, reps.max_h});
      }
      // Emission order: SplitMix64 of the candidate slot — a bijection, so
      // sorting on it alone is a total order.
      std::vector<std::pair<std::uint64_t, int>> order;
      for (int idx : kept) {
        order.emplace_back(common::splitmix64_mix(static_cast<std::uint64_t>(idx)), idx);
      }
      std::sort(order.begin(), order.end());
      for (const auto& [mixed, idx] : order) {
        next.push_back(candidates[static_cast<std::size_t>(idx)]);
      }
    } else {
      std::sort(occupied.begin(), occupied.end());
      volume_cells += static_cast<std::size_t>(
          std::unique(occupied.begin(), occupied.end()) - occupied.begin());
      next = candidates;
    }
    if (next.empty()) break;  // pinched off; later slices unreachable
  }

  tube.volume = static_cast<double>(volume_cells);
  return tube;
}

core::StiResult oracle_sti(const roadmap::DrivableMap& map, const dynamics::VehicleState& ego,
                           common::Seconds t0, std::span<const core::ActorForecast> forecasts,
                           const core::ReachTubeParams& params) {
  const auto slices = std::lround(params.horizon / params.dt);
  const common::Seconds dt{params.dt};
  std::vector<core::ObstacleTimeline> obstacles;
  for (const core::ActorForecast& f : forecasts) {
    core::ObstacleTimeline& tl = obstacles.emplace_back();
    tl.actor_id = common::ActorId{f.id};
    for (long j = 0; j <= slices; ++j) {
      tl.by_slice.push_back(f.trajectory.footprint_at(t0 + static_cast<double>(j) * dt, f.dims));
    }
  }

  core::StiResult out;
  out.volume_all = oracle_tube(map, ego, obstacles, params).volume;
  out.volume_empty = oracle_tube(map, ego, {}, params).volume;
  if (out.volume_empty <= 0.0) {
    for (const core::ActorForecast& f : forecasts) out.per_actor.emplace_back(f.id, 0.0);
    return out;
  }
  out.combined = clamp01((out.volume_empty - out.volume_all) / out.volume_empty);
  for (const core::ActorForecast& f : forecasts) {
    const double without =
        oracle_tube(map, ego, obstacles, params, common::ActorId{f.id}).volume;
    out.per_actor.emplace_back(f.id, clamp01((without - out.volume_all) / out.volume_empty));
  }
  return out;
}

sim::World typology_world(const scenario::ScenarioFactory& factory,
                          scenario::Typology typology) {
  common::Rng rng(7);
  const auto spec = factory.sample(typology, 0, rng);
  sim::World world = factory.build(spec);
  for (int i = 0; i < 20; ++i) world.step(dynamics::Control{0.0, 0.0});
  return world;
}

std::size_t produced_slices(const core::ReachTube& tube) {
  std::size_t n = 0;
  while (n < tube.slices.size() && !tube.slices[n].empty()) ++n;
  return n;
}

void expect_same_tube(const core::ReachTube& expected, const core::ReachTube& actual) {
  EXPECT_EQ(expected.volume, actual.volume);
  ASSERT_EQ(expected.slices.size(), actual.slices.size());
  for (std::size_t j = 0; j < expected.slices.size(); ++j) {
    const auto& a = expected.slices[j];
    const auto& b = actual.slices[j];
    ASSERT_EQ(a.size(), b.size()) << "slice " << j;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].x, b[i].x) << "slice " << j << " state " << i;
      EXPECT_EQ(a[i].y, b[i].y) << "slice " << j << " state " << i;
      EXPECT_EQ(a[i].heading, b[i].heading) << "slice " << j << " state " << i;
      EXPECT_EQ(a[i].speed, b[i].speed) << "slice " << j << " state " << i;
    }
  }
}

void expect_bit_identical(const core::StiResult& expected, const core::StiResult& actual) {
  EXPECT_EQ(expected.combined, actual.combined);
  EXPECT_EQ(expected.volume_all, actual.volume_all);
  EXPECT_EQ(expected.volume_empty, actual.volume_empty);
  ASSERT_EQ(expected.per_actor.size(), actual.per_actor.size());
  for (std::size_t i = 0; i < expected.per_actor.size(); ++i) {
    EXPECT_EQ(expected.per_actor[i].first, actual.per_actor[i].first) << "actor " << i;
    EXPECT_EQ(expected.per_actor[i].second, actual.per_actor[i].second) << "actor " << i;
  }
}

}  // namespace iprism::oracle
