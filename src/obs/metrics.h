#ifndef KALMANCAST_OBS_METRICS_H_
#define KALMANCAST_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace kc {
namespace obs {

/// The metrics layer's contract (docs/OBSERVABILITY.md):
///
///  - Registration (GetCounter/GetGauge/GetHistogram) is the cold path: it
///    takes the registry mutex and may allocate. Callers register once and
///    cache the returned pointer, which is stable for the registry's
///    lifetime.
///  - Recording (Inc/Set/Add/Record) is the hot path: zero heap
///    allocations, no locks, no branches beyond the histogram's bounded
///    bucket scan. Accumulation is a relaxed atomic load + store (not an
///    atomic read-modify-write): values are torn-free for readers on any
///    thread, but each instrument must have a **single writer at a
///    time**. That is the arena model by construction — one arena per
///    shard, written only by the thread stepping that shard, with the
///    tick barrier ordering any driver-side writes — and it makes a
///    counter increment a couple of plain moves instead of a `lock xadd`
///    (the difference between ~2% and ~25% overhead on the smallest
///    filter's hot loop; see BENCH_perf.json `observability_overhead`).
///  - Determinism: with per-shard arenas merged in shard order after the
///    tick barrier, every accumulation is a fixed sequence, so counters,
///    bucket counts, and even the order-dependent double sums are
///    bit-identical for any thread count.
///  - Metrics registered with `wall_clock = true` hold wall-clock timings
///    whose values are inherently run-dependent; exporters can exclude
///    them to produce byte-identical output across runs and thread counts.

/// Monotonically increasing integer metric. Single writer at a time (the
/// arena model); readable from any thread.
class Counter {
 public:
  void Inc(int64_t n = 1) {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  Counter() = default;
  std::atomic<int64_t> value_{0};
};

/// Last-written double metric. Merging *sums* gauges across arenas (a
/// per-shard level, e.g. registered sources, merges into the fleet total).
/// Single writer at a time; readable from any thread.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    value_.store(value_.load(std::memory_order_relaxed) + d,
                 std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Fixed upper-bound bucket layout, chosen once at registration. At most
/// kMaxBounds finite bounds; one implicit overflow bucket above the last.
struct Buckets {
  static constexpr size_t kMaxBounds = 30;

  std::array<double, kMaxBounds> bounds{};
  size_t count = 0;

  /// bounds[i] = first * factor^i, `n` of them. Degenerate inputs are
  /// clamped to a valid strictly-increasing layout and warned about once
  /// through the pluggable log sink: n is clamped to kMaxBounds, first
  /// must be finite and > 0 (else 1.0), factor finite and > 1 (else 2.0),
  /// and n == 0 yields only the implicit overflow bucket.
  static Buckets Exponential(double first, double factor, size_t n);
  /// bounds[i] = start + width * i, `n` of them. Same degenerate-input
  /// policy: n clamped to kMaxBounds, start must be finite (else 0.0),
  /// width finite and > 0 (else 1.0), n == 0 yields only the overflow
  /// bucket. Either way the resulting bounds are strictly increasing.
  static Buckets Linear(double start, double width, size_t n);
};

/// Fixed-bucket histogram with total count and sum. All storage is
/// preallocated at registration; Record is lock- and allocation-free.
/// Single writer at a time; readable from any thread. The total count is
/// derived from the bucket counts on read, so Record touches exactly one
/// bucket and the sum.
class Histogram {
 public:
  void Record(double v) {
    size_t i = 0;
    while (i < num_bounds_ && v > bounds_[i]) ++i;
    counts_[i].store(counts_[i].load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    sum_.store(sum_.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
  }

  int64_t count() const {
    int64_t total = 0;
    for (size_t i = 0; i <= num_bounds_; ++i) {
      total += counts_[i].load(std::memory_order_relaxed);
    }
    return total;
  }
  /// Estimates the q-quantile of the recorded distribution by linear
  /// interpolation inside the containing bucket (cold path; see
  /// HistogramQuantile for the exact semantics).
  double Quantile(double q) const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  size_t num_buckets() const { return num_bounds_ + 1; }
  /// Upper bound of bucket `i`; the last bucket is unbounded (+inf).
  double bucket_bound(size_t i) const;
  int64_t bucket_count(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  explicit Histogram(const Buckets& buckets);

  size_t num_bounds_;
  std::array<double, Buckets::kMaxBounds> bounds_;
  std::array<std::atomic<int64_t>, Buckets::kMaxBounds + 1> counts_;
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric's exported state (cold path, allocates).
struct MetricRow {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  bool wall_clock = false;
  int64_t counter = 0;       ///< kCounter.
  double gauge = 0.0;        ///< kGauge.
  std::vector<double> hist_bounds;   ///< kHistogram: finite upper bounds.
  std::vector<int64_t> hist_counts;  ///< kHistogram: bounds + overflow.
  int64_t hist_count = 0;
  double hist_sum = 0.0;
};

/// A metric arena: name -> metric, with cold-path registration and stable
/// metric pointers. One arena per shard (plus one for the driver thread)
/// keeps hot-path recording contention- and race-free by construction;
/// MergeFrom combines arenas after the tick barrier.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Registers (or finds) a metric. Returns nullptr only if `name` is
  /// already registered as a different kind. A histogram's bucket layout
  /// is fixed by its first registration; later calls ignore `buckets`.
  /// `wall_clock` marks run-dependent metrics for exporters (timings, and
  /// anything derived from them such as encoded-snapshot byte counts);
  /// like the bucket layout, it is fixed by the first registration.
  Counter* GetCounter(std::string_view name, bool wall_clock = false);
  Gauge* GetGauge(std::string_view name, bool wall_clock = false);
  Histogram* GetHistogram(std::string_view name, const Buckets& buckets,
                          bool wall_clock = false);

  /// Accumulates every metric of `other` into this registry, registering
  /// missing names (wall-clock flags carry over). Counters and histogram
  /// buckets add; gauges add (see Gauge). Kind conflicts are skipped, as
  /// are histograms whose bucket layout disagrees with the one already
  /// registered here — a layout mismatch means two arenas registered the
  /// same name with different buckets, so bucket-by-bucket addition would
  /// silently misbin; the row is dropped and the conflict is recorded
  /// (see Validate). Merging shard arenas in shard order after the
  /// barrier yields identical results for any thread count.
  void MergeFrom(const MetricRegistry& other);

  /// Snapshot of every metric, sorted by name (cold path).
  std::vector<MetricRow> Rows() const;

  size_t size() const;

  /// Conflicts seen so far, in first-seen order: kind conflicts ("name:
  /// registered as X, requested as Y") and histogram bucket-layout
  /// mismatches found by MergeFrom. A kind conflict means some caller got
  /// nullptr and its instrument is silently disabled; a layout conflict
  /// means a MergeFrom row was dropped. Each distinct conflict is also
  /// logged once through the pluggable log sink when it first happens.
  /// Empty means every registration agreed.
  std::vector<std::string> Validate() const;

 private:
  struct Entry {
    MetricKind kind;
    bool wall_clock = false;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Records (and logs, first time) a kind conflict. Caller holds mu_.
  void NoteConflictLocked(std::string_view name, MetricKind registered,
                          MetricKind requested);
  /// Records (and logs, first time) an arbitrary conflict description.
  void NoteConflict(std::string desc);
  void NoteConflictDescLocked(std::string desc);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_;
  std::vector<std::string> conflicts_;
};

/// Process-wide default registry for single-arena deployments (examples,
/// tests, a bare StreamServer). Sharded deployments use per-shard
/// registries instead.
MetricRegistry& DefaultRegistry();

/// Estimates the q-quantile of a bucketed distribution by linear
/// interpolation inside the containing bucket (the classic Prometheus
/// `histogram_quantile` estimator). `bounds` holds the finite upper
/// bounds, strictly increasing; `counts` the per-bucket (non-cumulative)
/// counts, sized bounds.size() + 1 with the overflow bucket last — the
/// layout MetricRow carries. q is clamped to [0, 1]. Deterministic
/// conventions at the edges: an empty histogram yields 0; a quantile
/// landing in the overflow bucket clamps to the last finite bound (there
/// is no upper edge to interpolate toward); the first bucket interpolates
/// from 0 when its bound is positive, else reports its bound.
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<int64_t>& counts, double q);

}  // namespace obs
}  // namespace kc

#endif  // KALMANCAST_OBS_METRICS_H_
