#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <stdexcept>

#include "agents/lbc.hpp"
#include "common/rng.hpp"
#include "roadmap/straight_road.hpp"
#include "scenario/suite.hpp"
#include "sim/behaviors.hpp"

namespace tickbench {

using iprism::common::Rng;
using iprism::sim::World;

namespace {

constexpr double kEgoSpeed = 8.0;  // the LBC agent's cruise speed

/// Drives `world` with a fresh LBC ego, keeping one clone per tick, until the
/// ego collides or the episode reaches `max_ticks` (at the simulator's 0.1 s).
Episode roll_out(World world, int max_ticks) {
  Episode ep;
  ep.ticks.reserve(static_cast<std::size_t>(max_ticks));
  iprism::agents::LbcAgent agent;
  for (int k = 0; k < max_ticks; ++k) {
    ep.ticks.push_back(world.clone());
    world.step(agent.act(world));
    if (world.ego_collided()) break;
  }
  return ep;
}

iprism::dynamics::VehicleState lane_state(const iprism::roadmap::DrivableMap& map, int lane,
                                          double s, double speed) {
  iprism::dynamics::VehicleState st;
  st.x = s;
  st.y = map.lane_center_offset(lane);
  st.heading = 0.0;
  st.speed = speed;
  return st;
}

/// Adds a gap-keeping lane follower at arclength `s` of `lane`.
void add_follower(World& world, int lane, double s, double speed) {
  iprism::sim::LaneFollowBehavior::Params p;
  p.lane = lane;
  p.target_speed = speed;
  p.keep_gap = true;
  iprism::sim::Actor a;
  a.kind = iprism::sim::ActorKind::kVehicle;
  a.state = lane_state(world.map(), lane, s, speed);
  a.behavior = std::make_unique<iprism::sim::LaneFollowBehavior>(p);
  world.add_actor(std::move(a));
}

/// The paper's workload: the five NHTSA typologies (generate_suite), each
/// episode 10 s or until collision. Every typology contributes exactly
/// kTicksPerTypology ticks (its last episode cut short): specs are drawn in
/// batches until the quota is met, so every seed gets the same typology
/// balance and the same tick count however early its episodes collide.
void build_typology_mix(Workload& w) {
  constexpr int kSpecsPerBatch = 8;
  constexpr int kTicksPerTypology = 240;
  const iprism::scenario::ScenarioFactory factory;
  std::uint64_t salt = 0;
  for (const auto typology : iprism::scenario::kAllTypologies) {
    const std::uint64_t typology_seed = hash_mix(w.seed, ++salt);
    int have = 0;
    for (std::uint64_t batch = 0; have < kTicksPerTypology; ++batch) {
      const auto suite = iprism::scenario::generate_suite(factory, typology, kSpecsPerBatch,
                                                          hash_mix(typology_seed, batch));
      for (std::size_t i = 0; i < suite.specs.size() && have < kTicksPerTypology; ++i) {
        w.episodes.push_back(
            roll_out(factory.build(suite.specs[i]), std::min(100, kTicksPerTypology - have)));
        have += static_cast<int>(w.episodes.back().ticks.size());
      }
    }
  }
}

/// Twelve gap-keeping followers, four per lane of a three-lane road, within
/// ±30 m of the ego: every tick is elevated and several actors need replays.
/// Short (5 s) episodes give each seed twenty independent layouts.
void build_dense_traffic(Workload& w) {
  auto map = std::make_shared<iprism::roadmap::StraightRoad>(3, 3.5, 600.0);
  constexpr double kEgoS = 60.0;
  constexpr double kOffsets[] = {-26.0, -12.0, 10.0, 24.0};
  for (std::uint64_t e = 0; w.tick_count() < kMinTicks; ++e) {
    Rng rng(hash_mix(w.seed, e));
    World world(map, 0.1);
    world.add_ego(lane_state(*map, 1, kEgoS, kEgoSpeed));
    for (int lane = 0; lane < 3; ++lane) {
      for (const double off : kOffsets) {
        add_follower(world, lane, kEgoS + off + rng.uniform(-2.0, 2.0),
                     kEgoSpeed + rng.uniform(-1.0, 1.0));
      }
    }
    w.episodes.push_back(roll_out(std::move(world), 50));
  }
}

}  // namespace

std::size_t Workload::tick_count() const {
  std::size_t n = 0;
  for (const Episode& ep : episodes) n += ep.ticks.size();
  return n;
}

Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  w.seed = seed;
  if (name == "typology_mix") {
    build_typology_mix(w);
  } else if (name == "dense_traffic") {
    build_dense_traffic(w);
  } else {
    throw std::invalid_argument("tickbench: unknown workload '" + w.name + "'");
  }
  if (w.tick_count() < kMinTicks) {
    throw std::runtime_error("tickbench: " + w.name + " seed " + std::to_string(seed) +
                             " generated " + std::to_string(w.tick_count()) + " ticks, fewer than " +
                             std::to_string(kMinTicks));
  }
  return w;
}

iprism::core::RiskMonitorParams monitor_params() {
  iprism::core::RiskMonitorParams p;
  p.tube.num_threads = 0;
  return p;
}

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t input_digest(const Workload& workload) {
  auto mix_state = [](std::uint64_t h, const iprism::dynamics::VehicleState& s) {
    for (const double v : {s.x, s.y, s.heading, s.speed}) h = hash_mix(h, double_bits(v));
    return h;
  };
  std::uint64_t h = hash_mix(0, workload.episodes.size());
  for (const Episode& ep : workload.episodes) {
    h = hash_mix(h, ep.ticks.size());
    for (const World& world : ep.ticks) {
      h = hash_mix(h, double_bits(world.time()));
      h = hash_mix(h, static_cast<std::uint64_t>(world.step_count()));
      for (const auto& a : world.actors()) {
        h = hash_mix(h, static_cast<std::uint64_t>(a.id));
        h = hash_mix(h, static_cast<std::uint64_t>(a.kind) * 2 + (a.crashed ? 1 : 0));
        h = hash_mix(h, double_bits(a.dims.length));
        h = hash_mix(h, double_bits(a.dims.width));
        h = mix_state(mix_state(h, a.state), a.prev_state);
      }
    }
  }
  return h;
}

}  // namespace tickbench
