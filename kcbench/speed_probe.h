#ifndef KCBENCH_SPEED_PROBE_H_
#define KCBENCH_SPEED_PROBE_H_

#include <cstdint>
#include <vector>

namespace kcbench {

/// Measures how fast the current CPU runs right now, so that a run's
/// wall-clock timings can be stated at one reference speed.
///
/// On a shared host a vCPU alternates, at millisecond scale, between full
/// speed and about 1.5x slower (another tenant busy on the same physical
/// core); the slow share drifts over seconds. A run's tick times scale
/// with that share, which spreads them across runs far more than any code
/// change we want to see. The probe is a fixed piece of arithmetic (a
/// scalar Kalman-style update over 256 states, about 14 KB, so it stays in
/// L1 and the program's own cache use does not move it) run between ticks
/// on the ticking thread. Its thread CPU time follows the core's current
/// speed, but not time spent preempted, so a sample taken while another
/// thread of the benchmark runs on the same CPU still reads true.
///
/// Factor() = kReferenceUs / (trimmed mean sample): multiply a wall time
/// by it (divide a rate by it) to get the time at reference speed.
class SpeedProbe {
 public:
  /// The probe's CPU time at full speed on the reference host (a 4-vCPU
  /// Intel Xeon VM, RelWithDebInfo): a normalised time reads as the wall
  /// time such a core would take. Only ratios between runs matter.
  static constexpr double kReferenceUs = 48.0;

  SpeedProbe();

  /// Runs the probe once; returns its CPU time in microseconds and keeps
  /// it as a sample.
  double Sample();

  /// kReferenceUs / TrimmedMean(samples, 0.01); 1.0 before any sample.
  double Factor() const;

 private:
  struct State {
    double x[2];
    double p[4];
    uint64_t rng;
  };
  std::vector<State> states_;
  std::vector<double> samples_us_;
};

}  // namespace kcbench

#endif  // KCBENCH_SPEED_PROBE_H_
