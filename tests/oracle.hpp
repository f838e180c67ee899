// The test oracle: the plainest scalar form of the paper's Algorithm 1 and a
// from-scratch N+2 STI built on it, plus the scenario and comparison helpers
// the identity suites share.
//
// The production engine (src/core) reaches the same tubes through a staged
// loop — a lane queue and batch step kernel, per-slice obstacle active
// sets, a circumradius broad phase, an attributed base propagation, resumed
// counterfactual replays, a thread-pool fan-out and pooled session scratch.
// None of that exists here: the oracle steps one candidate at a time and
// tests it against every non-excluded obstacle with an exact SAT test. Every
// identity suite (GeomKernelIdentity, CounterfactualDeltaIdentity,
// ParallelSti, SessionIdentity, the monitor engine-invariance test) compares
// the production results against this file bit for bit, so each production
// optimization is checked to change no result.
#pragma once

#include <cstddef>
#include <span>

#include "common/units.hpp"
#include "core/reachtube.hpp"
#include "core/scene.hpp"
#include "core/sti.hpp"
#include "dynamics/state.hpp"
#include "roadmap/map.hpp"
#include "scenario/factory.hpp"
#include "scenario/spec.hpp"
#include "sim/world.hpp"

namespace iprism::oracle {

/// Algorithm 1, one candidate at a time: for every parent state and control,
/// BicycleModel::step, dynamics::footprint, DrivableMap::contains_box, then
/// OrientedBox::intersects against every obstacle whose actor id is not
/// `exclude` — no active set, no broad phase, no batching. The dedup rule
/// (four extreme representatives per epsilon cell), the per-slice cap, the
/// uniform-sampling RNG stream and the SplitMix64 emission order follow
/// `params` exactly (DESIGN.md §5/§9). Only `by_slice` of each obstacle is
/// read. ActorId::none() excludes nobody.
core::ReachTube oracle_tube(const roadmap::DrivableMap& map, const dynamics::VehicleState& ego,
                            std::span<const core::ObstacleTimeline> obstacles,
                            const core::ReachTubeParams& params,
                            common::ActorId exclude = common::ActorId::none());

/// From-scratch STI (Eqs. 4–5): |T|, |T^∅| and one oracle_tube per actor
/// with that actor's id excluded — N+2 independent propagations. Forecasts
/// are sampled at the slice times t0 + j·dt. An anonymous actor excludes
/// nobody, so its STI is 0.
core::StiResult oracle_sti(const roadmap::DrivableMap& map, const dynamics::VehicleState& ego,
                           common::Seconds t0, std::span<const core::ActorForecast> forecasts,
                           const core::ReachTubeParams& params);

/// A mid-episode world for a typology: seeded sample, stepped 20 ticks so
/// the threat is live.
sim::World typology_world(const scenario::ScenarioFactory& factory,
                          scenario::Typology typology);

/// Slices holding at least one state: the tube vector always has
/// slice_count + 1 entries, and a pinched-off tube leaves the tail empty.
std::size_t produced_slices(const core::ReachTube& tube);

/// Exact == on every volume and state: the guarantee is bit-identity, not
/// closeness.
void expect_same_tube(const core::ReachTube& expected, const core::ReachTube& actual);
void expect_bit_identical(const core::StiResult& expected, const core::StiResult& actual);

}  // namespace iprism::oracle
