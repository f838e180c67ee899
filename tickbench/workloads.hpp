// Tick-benchmark inputs: seeded episodes of recorded worlds, one
// sim::World clone per monitor tick, generated entirely during set-up so the
// timed loop runs nothing but RiskMonitor::update.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/monitor.hpp"
#include "sim/world.hpp"

namespace tickbench {

/// One rolled-out episode: the world exactly as the monitor sees it on each
/// tick (a deep clone taken before the simulator steps).
struct Episode {
  std::vector<iprism::sim::World> ticks;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<Episode> episodes;

  std::size_t tick_count() const;
};

/// The benchmark's workloads, in the order BENCHMARK.json lists them.
inline constexpr std::string_view kWorkloadNames[] = {"typology_mix", "dense_traffic"};

/// Seed whose assessment digest is stored with the benchmark (digests.json).
inline constexpr std::uint64_t kDefaultSeed = 20240624;

/// Every workload has at least this many distinct ticks, so at least twenty
/// per-tick latencies lie beyond p98.
inline constexpr std::size_t kMinTicks = 1000;

/// Builds workload `name` from `seed` (same seed, same worlds). Throws
/// std::invalid_argument for an unknown name and std::runtime_error when the
/// seed yields fewer than kMinTicks ticks.
Workload make_workload(std::string_view name, std::uint64_t seed);

/// The one monitor configuration every workload runs: library defaults with
/// the engine strictly serial (tube.num_threads = 0).
iprism::core::RiskMonitorParams monitor_params();

/// Order-sensitive hash of every tick world: time, step count, and each
/// actor's id, kind, crash flag, dimensions, state and previous state bits.
std::uint64_t input_digest(const Workload& workload);

/// Folds one word into a running 64-bit hash (SplitMix64 finalizer).
std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v);

/// The IEEE-754 bits of `v`, for bit-exact hashing.
std::uint64_t double_bits(double v);

}  // namespace tickbench
