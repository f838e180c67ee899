// Kernel TU: compiled with -ffp-contract=off. Every loop body replicates the
// scalar expression sequence — OrientedBox::corners(), Aabb::expand in
// corner order, the classify_state broad-phase predicate — with the same
// association, so the kernels and the scalar path agree to the bit
// (enforced by tests/test_geom_kernel_identity.cpp). Any edit here must be
// mirrored against obb.cpp / aabb.hpp.
#include "geom/batch.hpp"

#include <algorithm>
#include <cmath>

namespace iprism::geom {

void footprint_axes(std::size_t n, const double* heading, double* ax, double* ay) {
  for (std::size_t i = 0; i < n; ++i) {
    ax[i] = std::cos(heading[i]);
    ay[i] = std::sin(heading[i]);
  }
}

void footprint_aabbs(std::size_t n, const double* cx, const double* cy, const double* ax,
                     const double* ay, double hl, double hw, double* lo_x, double* lo_y,
                     double* hi_x, double* hi_y) {
  for (std::size_t i = 0; i < n; ++i) {
    const double fx = ax[i] * hl;
    const double fy = ay[i] * hl;
    const double lx = -ay[i] * hw;
    const double ly = ax[i] * hw;
    const double c0x = (cx[i] + fx) + lx;
    const double c0y = (cy[i] + fy) + ly;
    const double c1x = (cx[i] - fx) + lx;
    const double c1y = (cy[i] - fy) + ly;
    const double c2x = (cx[i] - fx) - lx;
    const double c2y = (cy[i] - fy) - ly;
    const double c3x = (cx[i] + fx) - lx;
    const double c3y = (cy[i] + fy) - ly;
    // Aabb::expand fold in corner order: lo = hi = c0, then min/max with
    // c1, c2, c3 sequentially (left fold — ties, incl. signed zeros,
    // resolve exactly as the scalar path does).
    lo_x[i] = std::min(std::min(std::min(c0x, c1x), c2x), c3x);
    lo_y[i] = std::min(std::min(std::min(c0y, c1y), c2y), c3y);
    hi_x[i] = std::max(std::max(std::max(c0x, c1x), c2x), c3x);
    hi_y[i] = std::max(std::max(std::max(c0y, c1y), c2y), c3y);
  }
}

std::size_t broad_phase_cull(std::size_t n, const double* cx, const double* cy, double ox,
                             double oy, double r_sq, unsigned char* mask) {
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = ox - cx[i];
    const double dy = oy - cy[i];
    // classify_state skips the SAT test when norm_sq > r² — the mask is the exact
    // complement (NaN distances fall through to the narrow phase there too).
    const unsigned char hit = (dx * dx + dy * dy > r_sq) ? 0 : 1;
    mask[i] = hit;
    survivors += hit;
  }
  return survivors;
}

}  // namespace iprism::geom
