// Kernel TU: compiled with -ffp-contract=off so the lane loop evaluates the
// exact scalar expression sequence of BicycleModel::step in bicycle.cpp —
// same association order, no fused multiply-add — and produces the same
// bits whether or not the compiler vectorizes it.
// Any edit here must be mirrored in bicycle.cpp (and vice versa); the
// GeomKernelIdentity suite fails on the first diverging bit.
#include "dynamics/step_batch.hpp"

#include <algorithm>
#include <cmath>

#include "geom/vec2.hpp"

namespace iprism::dynamics {

void step_batch(std::size_t n, const StepBatchIn& in, const StepBatchOut& out, double dt,
                double wheelbase, double max_speed) {
  // The trig on heading_mid is a scalar libm call per lane (no vector libm
  // in the portability envelope); everything else is straight-line
  // lane-parallel arithmetic the compiler schedules across lanes. The libm
  // calls stay byte-for-byte the calls step() would make: same function,
  // same input bits.
  for (std::size_t i = 0; i < n; ++i) {
    const double v0 = in.speed[i];
    const double a = in.accel[i];
    const double v1 = std::clamp(v0 + a * dt, 0.0, max_speed);
    double move_dt = dt;
    // NOLINTNEXTLINE(iprism-float-eq) exact: std::clamp pins a full stop to literal 0.0
    if (v1 == 0.0 && v0 > 0.0 && a < 0.0) {
      move_dt = std::min(dt, v0 / -a);
    }
    const double v_mid = 0.5 * (v0 + v1);

    const double yaw_rate = v_mid / wheelbase * in.tan_steer[i];
    const double heading_mid = in.heading[i] + 0.5 * yaw_rate * move_dt;

    out.x[i] = in.x[i] + v_mid * std::cos(heading_mid) * move_dt;
    out.y[i] = in.y[i] + v_mid * std::sin(heading_mid) * move_dt;
    out.heading[i] = geom::wrap_angle(in.heading[i] + yaw_rate * move_dt);
    out.speed[i] = v1;
  }
}

}  // namespace iprism::dynamics
