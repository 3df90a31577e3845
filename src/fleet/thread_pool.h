#ifndef KALMANCAST_FLEET_THREAD_POOL_H_
#define KALMANCAST_FLEET_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace kc {

/// A non-owning reference to a `void(size_t)` callable — what ParallelFor
/// carries instead of std::function so the per-tick fork/join never heap
/// allocates (std::function copies the callable; a fleet tick would pay
/// that allocation every Step). The referenced callable must outlive the
/// call, which ParallelFor guarantees by blocking until the batch joins.
class FuncRef {
 public:
  FuncRef() = default;
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>,
                                                        FuncRef>>>
  FuncRef(const F& f)  // NOLINT: implicit by design, mirrors function_ref.
      : obj_(&f), fn_([](const void* obj, size_t i) {
          (*static_cast<const F*>(obj))(i);
        }) {}

  void operator()(size_t i) const { fn_(obj_, i); }
  explicit operator bool() const { return fn_ != nullptr; }

 private:
  const void* obj_ = nullptr;
  void (*fn_)(const void*, size_t) = nullptr;
};

/// Same, for a `void(size_t begin, size_t end)` range body.
class RangeFuncRef {
 public:
  RangeFuncRef() = default;
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>,
                                                        RangeFuncRef>>>
  RangeFuncRef(const F& f)  // NOLINT: implicit by design.
      : obj_(&f), fn_([](const void* obj, size_t b, size_t e) {
          (*static_cast<const F*>(obj))(b, e);
        }) {}

  void operator()(size_t begin, size_t end) const { fn_(obj_, begin, end); }

 private:
  const void* obj_ = nullptr;
  void (*fn_)(const void*, size_t, size_t) = nullptr;
};

/// A persistent pool of worker threads driving fork/join batches.
///
/// ParallelFor(n, body) runs body(0..n-1) across the workers (the calling
/// thread participates) and returns only after every item has finished —
/// the join is the barrier the sharded executor relies on: after
/// ParallelFor returns, every side effect of every body(i) is visible to
/// the caller (the completion count is published under the pool mutex).
///
/// With `threads <= 1` no workers are spawned and ParallelFor degrades to
/// a plain sequential loop, so a --threads=1 run executes exactly the
/// code a --threads=N run executes, minus the scheduling.
///
/// Contract: one driver thread; bodies must not throw. A body MAY call
/// ParallelFor on its own pool again (nested batched work): the re-entry
/// is detected and the nested loop runs inline on the calling thread,
/// sequentially — correct and deterministic, though without additional
/// parallelism.
///
/// ParallelFor never allocates: the pool owns one batch control block,
/// reused by every call, and FuncRef carries the body without copying it.
class ThreadPool {
 public:
  /// Deterministic chunking for range sweeps: ParallelForRanges splits
  /// [0, n) into exactly
  ///
  ///   NumChunks(n) = clamp(n / kChunkItems, 1, kMaxChunks)      (n > 0)
  ///
  /// contiguous ranges whose sizes differ by at most one (chunk i starts
  /// at i*floor(n/chunks) + min(i, n mod chunks)). The formula is a pure
  /// function of n — never of the pool's thread count or runtime load —
  /// so the work partition of a sweep is reproducible for a fixed input
  /// size. (Partitioning cannot affect *results*: chunked items must be
  /// mutually independent. Making it deterministic anyway keeps perf
  /// profiles comparable across runs and guarantees a --threads=N sweep
  /// partitions exactly like --threads=1.) kChunkItems trades scheduling
  /// overhead against load-balancing granularity; kMaxChunks bounds the
  /// bookkeeping for very large n.
  static constexpr size_t kChunkItems = 64;
  static constexpr size_t kMaxChunks = 1024;
  static size_t NumChunks(size_t n) {
    if (n == 0) return 0;
    size_t chunks = n / kChunkItems;
    if (chunks < 1) chunks = 1;
    if (chunks > kMaxChunks) chunks = kMaxChunks;
    return chunks;
  }

  /// `threads` is the total parallelism including the calling thread:
  /// threads-1 workers are spawned. 0 is treated as 1.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs body(i) for every i in [0, n), dynamically load-balanced across
  /// the pool, and blocks until all n items completed.
  void ParallelFor(size_t n, FuncRef body);

  /// Runs body(begin, end) over the NumChunks(n) deterministic contiguous
  /// ranges covering [0, n), load-balanced like ParallelFor items, and
  /// blocks until every range completed.
  void ParallelForRanges(size_t n, RangeFuncRef body);

  /// Total parallelism (workers + the calling thread).
  size_t threads() const { return workers_.size() + 1; }

 private:
  /// One fork/join batch. A straggler that joined the previous batch late
  /// sees its exhausted index space, never the next batch's items: the
  /// driver resets the batch only once no thread holds it (holders == 0).
  struct Batch {
    FuncRef body;
    size_t n = 0;
    std::atomic<size_t> next{0};
    size_t completed = 0;  ///< Guarded by ThreadPool::mu_.
    size_t holders = 0;    ///< Threads inside RunItems; guarded by mu_.
  };

  void WorkerLoop();
  void RunItems();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Batch batch_;
  uint64_t generation_ = 0;  ///< Guarded by mu_.
  bool shutdown_ = false;    ///< Guarded by mu_.
};

}  // namespace kc

#endif  // KALMANCAST_FLEET_THREAD_POOL_H_
