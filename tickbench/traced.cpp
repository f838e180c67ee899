#include "traced.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "core/reachtube.hpp"
#include "core/scene.hpp"
#include "core/sti.hpp"

namespace tickbench {

namespace core = iprism::core;
using iprism::common::telemetry::trace_now_ns;

namespace {

/// Times layer calls of one tick into spans and per-layer totals.
struct Recorder {
  std::uint32_t tick;
  std::vector<Span>& spans;
  LayerTimes& times;

  template <class F>
  auto operator()(Layer layer, F&& call) {
    const std::uint64_t start = trace_now_ns();
    auto result = call();
    const std::uint64_t dur = trace_now_ns() - start;
    spans.push_back(Span{tick, layer, start, dur});
    times[layer] += dur;
    return result;
  }
};

/// One STI evaluation's fixed inputs.
struct StiCall {
  const core::ReachTubeComputer& tube;
  core::RiskSession& session;
  const iprism::roadmap::DrivableMap& map;
  const iprism::dynamics::VehicleState& ego;
  std::span<const core::ActorForecast> forecasts;
  iprism::common::Seconds t0;
};

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

bool has_duplicate_valid_ids(std::span<const core::ActorForecast> forecasts) {
  std::vector<int> ids;
  ids.reserve(forecasts.size());
  for (const core::ActorForecast& f : forecasts) {
    if (iprism::common::ActorId{f.id}.valid()) ids.push_back(f.id);
  }
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) != ids.end();
}

core::AttributedTube base_tube(Recorder& rec, const StiCall& c,
                               std::span<const core::ObstacleTimeline> obstacles,
                               WorkCounts& counts) {
  core::AttributedTube base = rec(
      kBase, [&] { return c.tube.compute_attributed(c.session, c.map, c.ego, obstacles); });
  ++counts.base_calls;
  for (const auto& slice : base.attribution.slices) counts.base_tests += slice.tests.size();
  for (const auto& slice : base.tube.slices) counts.base_states += slice.size();
  counts.base_active += base.attribution.active_flat.size();
  counts.base_frontier += base.attribution.blocked_frontier;
  return base;
}

void add_replay(const core::CounterfactualStats& st, WorkCounts& counts) {
  counts.replay_fresh_tests += st.fresh_tests;
  counts.replay_memo_hits += st.memo_hits;
}

/// |T^∅|: free when no actor rejected anything, else a replay.
double unblocked_volume(Recorder& rec, const StiCall& c,
                        std::span<const core::ObstacleTimeline> obstacles,
                        const core::AttributedTube& base, WorkCounts& counts) {
  ++counts.unblocked_calls;
  if (base.attribution.first_actor_block == core::TubeAttribution::kNever) {
    ++counts.unblocked_free;
    return base.tube.volume;
  }
  core::CounterfactualStats st;
  const double volume = rec(kUnblocked, [&] {
    return c.tube.compute_unblocked(c.session, c.map, c.ego, obstacles, base, &st).volume;
  });
  add_replay(st, counts);
  return volume;
}

/// StiCalculator::combined, serial, as layer calls.
double combined(Recorder& rec, const StiCall& c, WorkCounts& counts) {
  const auto obstacles =
      rec(kObstacles, [&] { return c.tube.sample_obstacles(c.forecasts, c.t0); });
  const core::AttributedTube base = base_tube(rec, c, obstacles, counts);
  const double vol_all = base.tube.volume;
  const double vol_empty = unblocked_volume(rec, c, obstacles, base, counts);
  if (vol_empty <= 0.0) return 0.0;
  return clamp01((vol_empty - vol_all) / vol_empty);
}

/// StiCalculator::compute, serial, as layer calls.
core::StiResult compute(Recorder& rec, const StiCall& c, WorkCounts& counts) {
  const auto obstacles =
      rec(kObstacles, [&] { return c.tube.sample_obstacles(c.forecasts, c.t0); });
  core::StiResult out;
  const core::AttributedTube base = base_tube(rec, c, obstacles, counts);
  out.volume_all = base.tube.volume;
  const bool dup_ids = has_duplicate_valid_ids(c.forecasts);

  std::vector<double> vol(c.forecasts.size() + 1, 0.0);
  vol[0] = unblocked_volume(rec, c, obstacles, base, counts);
  for (std::size_t i = 0; i < c.forecasts.size(); ++i) {
    ++counts.cf_total;
    const iprism::common::ActorId id{c.forecasts[i].id};
    if (!id.valid() || (!dup_ids && base.attribution.blocks_nothing(i))) {
      vol[i + 1] = out.volume_all;
      ++counts.cf_free;
      continue;
    }
    ++counts.replays;
    if (dup_ids) {
      vol[i + 1] = rec(kCounterfactual, [&] {
        return c.tube.compute(c.session, c.map, c.ego, obstacles, id).volume;
      });
      continue;
    }
    core::CounterfactualStats st;
    vol[i + 1] = rec(kCounterfactual, [&] {
      return c.tube
          .compute_counterfactual(c.session, c.map, c.ego, obstacles, base, i, &st)
          .volume;
    });
    add_replay(st, counts);
  }
  out.volume_empty = vol[0];
  if (out.volume_empty <= 0.0) {
    for (const auto& f : c.forecasts) out.per_actor.emplace_back(f.id, 0.0);
    return out;
  }
  out.combined = clamp01((out.volume_empty - out.volume_all) / out.volume_empty);
  out.per_actor.reserve(c.forecasts.size());
  for (std::size_t i = 0; i < c.forecasts.size(); ++i) {
    out.per_actor.emplace_back(c.forecasts[i].id,
                               clamp01((vol[i + 1] - out.volume_all) / out.volume_empty));
  }
  return out;
}

}  // namespace

Decomposer::Decomposer(const core::RiskMonitor& monitor, const core::RiskMonitorParams& params)
    : monitor_(monitor), params_(params) {}

core::RiskMonitor::Assessment Decomposer::tick(std::uint32_t tick_index,
                                               core::RiskSession& session,
                                               MonitorState& state,
                                               const iprism::sim::World& world,
                                               std::vector<Span>& spans,
                                               WorkCounts& counts, LayerTimes& times) const {
  times.fill(0);
  const std::size_t root = spans.size();
  const std::uint64_t begin = trace_now_ns();
  spans.push_back(Span{tick_index, kTick, begin, 0});
  Recorder rec{tick_index, spans, times};
  ++counts.ticks;

  const auto forecasts = rec(kForecast, [&] {
    return core::cvtr_forecasts(world, params_.tube.horizon, params_.tube.dt);
  });
  counts.actors += forecasts.size();
  const StiCall call{monitor_.sti_calculator().tube_computer(),
                     session,
                     world.map(),
                     world.ego().state,
                     forecasts,
                     iprism::common::Seconds{world.time()}};

  // RiskMonitor::update's policy: the per-actor compute when already
  // elevated, else combined() plus a per-actor re-run on escalation.
  core::RiskMonitor::Assessment out;
  const bool may_attribute = params_.attribute_when_elevated && !forecasts.empty();
  std::optional<core::StiResult> full;
  if (may_attribute && state.level >= core::RiskLevel::kCaution) {
    ++counts.full_ticks;
    full = compute(rec, call, counts);
    out.sti_combined = full->combined;
  } else {
    out.sti_combined = combined(rec, call, counts);
  }
  core::RiskLevel implied = core::RiskLevel::kSafe;
  if (out.sti_combined >= params_.critical_threshold) {
    implied = core::RiskLevel::kCritical;
  } else if (out.sti_combined >= params_.caution_threshold) {
    implied = core::RiskLevel::kCaution;
  }
  if (may_attribute && implied > state.level && !full) {
    ++counts.full_ticks;
    full = compute(rec, call, counts);
  }
  if (full) {
    if (const auto riskiest = core::riskiest_actor_of(*full)) {
      out.riskiest_actor = riskiest->first;
      out.riskiest_sti = riskiest->second;
    }
  }
  if (implied > state.level) {
    state.level = implied;
    state.quiet_streak = 0;
  } else if (implied < state.level) {
    if (++state.quiet_streak >= params_.hysteresis_updates) {
      state.level = static_cast<core::RiskLevel>(static_cast<int>(state.level) - 1);
      state.quiet_streak = 0;
    }
  } else {
    state.quiet_streak = 0;
  }
  out.level = state.level;

  const std::uint64_t dur = trace_now_ns() - begin;
  spans[root].dur_ns = dur;
  times[kTick] = dur;
  return out;
}

}  // namespace tickbench
