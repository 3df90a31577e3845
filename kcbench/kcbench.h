#ifndef KCBENCH_KCBENCH_H_
#define KCBENCH_KCBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"

namespace kcbench {

/// Every workload runs this many sources (see README.md, "Workloads").
inline constexpr int32_t kSources = 2000;

/// What one benchmark invocation was asked to do.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome-trace output of the traced fleet run (trace mode only).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's verdict and numbers, printed as the final JSON line.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed self-check: prints why on stderr and clears
  /// `correct`.
  void Fail(const std::string& why);
};

/// pooled_quiet and sensor_queries (fleet_workloads.cc).
Result RunFleetWorkload(const RunOptions& options);
/// split_loopback (split_workload.cc).
Result RunSplitWorkload(const RunOptions& options);

/// Mean ns per message of codec::EncodeFrame and of codec::DecodeFrame
/// over `mix` (fleet_workloads.cc); false if a frame does not decode back
/// to its message.
bool TimeCodec(const std::vector<kc::Message>& mix, double* encode_ns,
               double* decode_ns);

// --- Host facts (host.cc) ---

/// 1-minute load average from /proc/loadavg (-1 if unreadable).
double LoadAverage1();
/// Prints one "host" JSON line: nproc, CPU model, build type, AVX2, and
/// the load averages before and after the run.
void PrintHostStamp(double load_before, double load_after);
/// Peak resident set of this process in MB (VmHWM).
double PeakRssMb();
/// Current resident set of this process in KB (VmRSS).
double CurrentRssKb();
/// Returns freed heap to the system and restarts PeakRssMb's high-water
/// mark from the current resident set.
void ResetPeakRss();

/// Spreads the process's threads evenly over every CPU it may run on.
/// On a shared host each vCPU's speed drifts on its own over tens of
/// seconds; a run that stayed on whichever vCPUs the scheduler first
/// picked would measure that luck. Every `period_s`, MaybeRotate pins
/// thread k (in thread-id order) to CPU (offset + k) mod n and advances
/// the offset, so each thread spends equal time on each CPU. The
/// destructor restores the full affinity mask.
class CpuRotation {
 public:
  /// With `one_cpu`, every thread is pinned to the same CPU instead.
  CpuRotation(double period_s, bool one_cpu);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Re-pins if the period has elapsed; returns whether it did. Cheap
  /// otherwise (one clock read).
  bool MaybeRotate();

 private:
  std::vector<int> cpus_;
  double period_s_;
  bool one_cpu_;
  double next_s_ = 0.0;
  size_t offset_ = 0;
};

/// Monotonic wall clock in seconds.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace kcbench

#endif  // KCBENCH_KCBENCH_H_
