// The traced run's layer decomposition: RiskMonitor::update re-expressed as
// the calls it makes into each core layer's public functions, in the same
// order (RiskMonitor::update → StiCalculator::{combined, compute}), with a
// span around every layer call and the work each call did counted.
//
// The decomposition re-implements the monitor and STI glue (level policy,
// free-counterfactual shortcuts, Eq. 4/5 arithmetic) on top of the layer
// calls, so the traced run checks — bit for bit, every tick — that it still
// reproduces RiskMonitor::update. A later change to monitor or STI policy
// then fails that check instead of being timed against a stale call order.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/monitor.hpp"
#include "core/session.hpp"
#include "sim/world.hpp"

namespace tickbench {

/// Span kinds: the root `tick` span plus one per timed layer call.
enum Layer : std::uint8_t {
  kTick = 0,
  kForecast,        ///< core/scene cvtr_forecasts
  kObstacles,       ///< ReachTubeComputer::sample_obstacles
  kBase,            ///< ReachTubeComputer::compute_attributed
  kUnblocked,       ///< ReachTubeComputer::compute_unblocked
  kCounterfactual,  ///< ReachTubeComputer::compute_counterfactual
  kLayerCount,
};

inline constexpr const char* kLayerNames[kLayerCount] = {
    "tick", "forecast", "obstacles", "base", "unblocked", "counterfactual"};

struct Span {
  std::uint32_t tick = 0;  ///< workload-global tick index
  Layer layer = kTick;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Work done by the layer calls, summed over ticks. Every field is a pure
/// function of the inputs, so two passes over the same ticks must agree
/// exactly.
struct WorkCounts {
  std::uint64_t ticks = 0;
  std::uint64_t actors = 0;              ///< forecasts produced
  std::uint64_t full_ticks = 0;          ///< ticks running the per-actor compute
  std::uint64_t base_calls = 0;          ///< compute_attributed calls
  std::uint64_t base_tests = 0;          ///< state tests recorded by the base
  std::uint64_t base_states = 0;         ///< states kept in base tubes
  std::uint64_t base_active = 0;         ///< active obstacle-slices of the base
  std::uint64_t base_frontier = 0;       ///< blocked-frontier records
  std::uint64_t unblocked_calls = 0;     ///< |T^∅| derivations (free or replayed)
  std::uint64_t unblocked_free = 0;
  std::uint64_t cf_total = 0;            ///< per-actor counterfactuals
  std::uint64_t cf_free = 0;             ///< ... answered without a replay
  std::uint64_t replays = 0;             ///< compute_counterfactual calls
  std::uint64_t replay_fresh_tests = 0;  ///< over unblocked + counterfactual replays
  std::uint64_t replay_memo_hits = 0;

  bool operator==(const WorkCounts&) const = default;
};

/// Per-stream monitor state the decomposition keeps itself (the session's
/// copy is private to RiskMonitor).
struct MonitorState {
  iprism::core::RiskLevel level = iprism::core::RiskLevel::kSafe;
  int quiet_streak = 0;
};

/// Per-tick layer times of one traced tick, ns, indexed by Layer (kTick holds
/// the whole traced tick).
using LayerTimes = std::array<std::uint64_t, kLayerCount>;

class Decomposer {
 public:
  /// `monitor` supplies the tube engine; `params` must be the ones it was
  /// built with.
  Decomposer(const iprism::core::RiskMonitor& monitor,
             const iprism::core::RiskMonitorParams& params);

  /// One traced monitor tick. Appends its spans to `spans` and adds its work
  /// to `counts`; returns the assessment and fills `times`.
  iprism::core::RiskMonitor::Assessment tick(std::uint32_t tick_index,
                                             iprism::core::RiskSession& session,
                                             MonitorState& state,
                                             const iprism::sim::World& world,
                                             std::vector<Span>& spans, WorkCounts& counts,
                                             LayerTimes& times) const;

 private:
  const iprism::core::RiskMonitor& monitor_;
  iprism::core::RiskMonitorParams params_;
};

}  // namespace tickbench
