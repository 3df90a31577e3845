#include "streams/resample.h"

#include <algorithm>
#include <cmath>

namespace kc {

namespace {

Vector Lerp(const Vector& a, const Vector& b, double frac) {
  Vector out(a.size());
  for (size_t d = 0; d < a.size(); ++d) {
    out[d] = a[d] + frac * (b[d] - a[d]);
  }
  return out;
}

}  // namespace

StatusOr<std::vector<Sample>> ResampleTrace(const std::vector<Sample>& trace,
                                            double dt) {
  if (trace.size() < 2) {
    return Status::InvalidArgument("need at least two samples to resample");
  }
  if (dt <= 0.0) return Status::InvalidArgument("dt must be positive");
  for (size_t i = 1; i < trace.size(); ++i) {
    if (trace[i].truth.time <= trace[i - 1].truth.time) {
      return Status::InvalidArgument(
          "timestamps must be strictly increasing (run DropNonMonotonic "
          "first)");
    }
  }

  double t0 = trace.front().truth.time;
  double t_end = trace.back().truth.time;
  double steps = (t_end - t0) / dt;
  if (!std::isfinite(steps) || steps >= kMaxResampleGridPoints) {
    return Status::InvalidArgument(
        "dt too small for the trace's span: the grid would exceed "
        "kMaxResampleGridPoints");
  }
  auto count = static_cast<size_t>(std::floor(steps)) + 1;

  std::vector<Sample> out;
  out.reserve(count);
  size_t seg = 0;  // Current segment [seg, seg+1].
  for (size_t k = 0; k < count; ++k) {
    double t = t0 + static_cast<double>(k) * dt;
    while (seg + 2 < trace.size() && trace[seg + 1].truth.time < t) ++seg;

    Sample s;
    s.truth.seq = static_cast<int64_t>(k);
    s.truth.time = t;
    const Sample& a = trace[seg];
    const Sample& b = trace[seg + 1];
    if (t >= b.truth.time) {
      // Clamp past the end (float edge).
      s.truth.value = b.truth.value;
      s.measured.value = b.measured.value;
    } else {
      double frac = (t - a.truth.time) / (b.truth.time - a.truth.time);
      frac = std::clamp(frac, 0.0, 1.0);
      s.truth.value = Lerp(a.truth.value, b.truth.value, frac);
      s.measured.value = Lerp(a.measured.value, b.measured.value, frac);
    }
    s.measured.seq = s.truth.seq;
    s.measured.time = t;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Sample> DropNonMonotonic(const std::vector<Sample>& trace,
                                     size_t* dropped) {
  std::vector<Sample> out;
  out.reserve(trace.size());
  size_t removed = 0;
  for (const Sample& s : trace) {
    if (!out.empty() && s.truth.time <= out.back().truth.time) {
      ++removed;
      continue;
    }
    out.push_back(s);
  }
  if (dropped != nullptr) *dropped = removed;
  return out;
}

}  // namespace kc
