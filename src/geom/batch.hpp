// Structure-of-arrays batch kernels for footprint geometry (DESIGN.md §13).
//
// The reach-tube inner loop needs, per candidate state: the footprint's
// local axes (cos/sin of the heading), the AABB of its four corners
// (consumed by the drivable-area band test), and a circumradius distance
// cull against each active obstacle. These kernels compute those quantities
// for whole lanes at a time, **bit-identically** to the scalar path
// (dynamics::footprint → OrientedBox::corners()/aabb() and the broad-phase
// predicate in ReachTubeComputer::classify_state): every expression replicates
// the scalar association order exactly, and the TU compiles with
// -ffp-contract=off so no fused multiply-add can re-round an intermediate.
// The narrow-phase SAT test deliberately stays scalar
// (OrientedBox::intersects) — it runs only on broad-phase survivors, a few
// per thousand lanes, where batching would cost more than it saves.
#pragma once

#include <cstddef>

namespace iprism::geom {

/// Footprint local axes per lane: ax = cos(heading), ay = sin(heading) —
/// the exact bits heading_vec() (and therefore the OrientedBox constructor)
/// produces for the same heading.
void footprint_axes(std::size_t n, const double* heading, double* ax, double* ay);

/// Corner AABB per lane — bit-identical to OrientedBox::aabb() (corners
/// folded through Aabb::expand in corner order). `cx/cy` are the box
/// centres, `ax/ay` the axes from footprint_axes, `hl/hw` the shared half
/// extents. The four corners are formed in registers with the exact
/// expressions of OrientedBox::corners(); nothing is stored but the bounds.
void footprint_aabbs(std::size_t n, const double* cx, const double* cy, const double* ax,
                     const double* ay, double hl, double hw, double* lo_x, double* lo_y,
                     double* hi_x, double* hi_y);

/// Broad-phase circumradius cull of one obstacle against all lanes:
/// mask[i] = 1 iff the lane needs the narrow-phase SAT test, i.e. iff
/// !((ox - cx[i])² + (oy - cy[i])² > r²) — the exact complement of the
/// classify_state broad-phase `continue`. Returns the number of surviving lanes
/// so callers can skip the narrow phase wholesale when it is zero.
std::size_t broad_phase_cull(std::size_t n, const double* cx, const double* cy, double ox,
                             double oy, double r_sq, unsigned char* mask);

}  // namespace iprism::geom
