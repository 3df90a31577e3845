#ifndef KALMANCAST_STREAMS_RESAMPLE_H_
#define KALMANCAST_STREAMS_RESAMPLE_H_

#include <vector>

#include "common/status.h"
#include "streams/reading.h"

namespace kc {

/// Resamples an irregularly-timed trace onto a uniform grid.
///
/// Real exported streams rarely tick uniformly (sensor duty cycles, GPS
/// dropouts), but the suppression protocol and the bundled discrete
/// models assume a fixed dt. ResampleTrace linearly interpolates both
/// truth and measurement onto t0, t0+dt, t0+2dt, ..., covering the input
/// span; sequence numbers are renumbered from 0.
///
/// Requirements: at least two samples, strictly increasing times, dt > 0,
/// and a grid of at most kMaxResampleGridPoints points ((t_end - t0) / dt
/// finite and within the cap); otherwise InvalidArgument.
/// Values are interpolated per dimension; a grid point beyond the final
/// input time is clamped to the last sample (at most one such point,
/// from floating-point edge effects).
/// The largest grid ResampleTrace builds: 2^22 points (about 48 days of a
/// 1 Hz stream). The output is materialised, so a dt tiny against the
/// trace's span would otherwise ask for billions of samples — or, when
/// the point count overflows, silently truncate to one.
inline constexpr double kMaxResampleGridPoints = 4194304.0;

StatusOr<std::vector<Sample>> ResampleTrace(const std::vector<Sample>& trace,
                                            double dt);

/// Drops samples whose timestamps are non-increasing relative to the
/// previous *kept* sample — the standard cleanup for merged/battery-
/// glitched sensor exports. Returns the number of dropped samples via
/// `dropped` (optional).
std::vector<Sample> DropNonMonotonic(const std::vector<Sample>& trace,
                                     size_t* dropped = nullptr);

}  // namespace kc

#endif  // KALMANCAST_STREAMS_RESAMPLE_H_
