// Safety-Threat Indicator (paper §III-A, Eqs. 1-6).
//
// STI quantifies the risk an actor poses to the ego as the counterfactual
// change in the ego's escape routes:
//
//   STI_i        = (|T^{/i}| - |T|) / |T^{∅}|        (Eq. 4)
//   STI_combined = (|T^{∅}|  - |T|) / |T^{∅}|        (Eq. 5)
//
// where |T| is the reach-tube volume with all actors present, |T^{/i}|
// with actor i removed, and |T^{∅}| with no actors. Values are clamped to
// [0, 1]: 0 = the actor does not reduce any escape route, 1 = the actor
// eliminates all of them.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/reachtube.hpp"
#include "core/scene.hpp"

namespace iprism::core {

/// Per-computation result.
struct StiResult {
  double combined = 0.0;
  /// (actor id, STI_i) for every forecast actor, in input order. Empty when
  /// the calculator was asked for the combined value only.
  std::vector<std::pair<int, double>> per_actor;
  double volume_all = 0.0;    ///< |T|
  double volume_empty = 0.0;  ///< |T^{∅}|

  /// Highest per-actor STI (0 if none).
  double max_actor_sti() const;
};

// The N+2 tubes an evaluation needs — |T|, |T^{∅}|, and one counterfactual
// per actor — share almost their whole wavefront. The base |T| is propagated
// once with blocked-by attribution and every other tube is derived from it by
// resumed replay (DESIGN.md §12): actors that rejected nothing alone are
// free, the rest re-propagate only from their first rejection on. The N+1
// derived tubes are independent const reads of the attributed base, so with
// `num_threads > 0` they fan out over a common::ThreadPool and aggregate by
// index — parallel results stay bit-identical to serial ones (DESIGN.md §8)
// and to the from-scratch N+2 fan-out of the test oracle (tests/oracle.hpp).
//
// Input contract: the replay excludes actor i by obstacle index, so Eq. 4
// needs each valid ActorId at most once. Both entry points reject a forecast
// list that repeats a valid id (std::invalid_argument); anonymous actors
// (ActorId::none()) may repeat and always get STI_i = 0.
class StiCalculator {
 public:
  /// An immutable engine after construction (DESIGN.md §14): every compute
  /// is const and mutates only the session it is handed. With
  /// `params.num_threads > 0` the N+1 derived tubes fan out, after the one
  /// serial attributed base, on `pool` when given, or on the process-wide
  /// common::ThreadPool::shared() — M calculators share one set of workers
  /// instead of spawning M pools. `num_threads == 0` stays strictly serial
  /// (pool ignored). Thread count and pool choice never change any result
  /// (DESIGN.md §8).
  explicit StiCalculator(const ReachTubeParams& params = {},
                         common::ThreadPool* pool = nullptr);

  const ReachTubeComputer& tube_computer() const { return tube_; }
  /// The pool the fan-out runs on: null when serial, otherwise the injected
  /// pool or ThreadPool::shared(). Exposed so tests can assert the one-pool
  /// property.
  const common::ThreadPool* pool() const { return pool_; }

  /// Full evaluation: combined STI plus one counterfactual tube per actor
  /// (Eq. 4 for each i, Eq. 5 for the combined value), leasing scratch from
  /// `session` — warm across ticks when the session is reused. Results are
  /// bit-identical for fresh and reused sessions (SessionIdentity suites).
  StiResult compute(RiskSession& session, const roadmap::DrivableMap& map,
                    const dynamics::VehicleState& ego, common::Seconds t0,
                    std::span<const ActorForecast> forecasts) const;

  /// Combined STI only (|T| plus at most one |T^{∅}| replay instead of N+2
  /// tubes) — the quantity the SMC reward needs at every training step.
  double combined(RiskSession& session, const roadmap::DrivableMap& map,
                  const dynamics::VehicleState& ego, common::Seconds t0,
                  std::span<const ActorForecast> forecasts) const;

 private:
  ReachTubeComputer tube_;
  /// Null when params.num_threads == 0 (serial); otherwise the injected pool
  /// or &ThreadPool::shared(). Never owned: the shared pool outlives every
  /// engine (function-local static), and injected pools are the injector's
  /// responsibility.
  common::ThreadPool* pool_ = nullptr;
};

}  // namespace iprism::core
