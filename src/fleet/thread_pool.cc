#include "fleet/thread_pool.h"

namespace kc {

namespace {

/// The pool whose batch body is executing on this thread, if any. Lets
/// ParallelFor detect re-entrant calls from inside a body — previously a
/// deadlock: the nested batch overwrote batch_/generation_, workers
/// blocked inside the outer batch never picked it up, and the nested
/// driver waited forever on completions that could not arrive.
thread_local const ThreadPool* t_running_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  if (threads <= 1) return;
  workers_.reserve(threads - 1);
  for (size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ParallelFor(size_t n, FuncRef body) {
  if (n == 0) return;
  // Re-entry from inside one of this pool's own bodies (nested batched
  // work) runs inline on the calling thread: the outer batch already owns
  // the workers, and publishing a second batch would deadlock both.
  if (workers_.empty() || n == 1 || t_running_pool == this) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Wait out stragglers of the previous batch: a worker that woke late
    // holds it until its fetch_add finds the index space exhausted.
    // holders counts threads inside RunItems, so holders == 0 means no
    // thread can touch the old fields again without re-reading them under
    // this mutex, after the new generation is published.
    done_cv_.wait(lock, [this] { return batch_.holders == 0; });
    batch_.body = body;
    batch_.n = n;
    batch_.next.store(0, std::memory_order_relaxed);
    batch_.completed = 0;
    batch_.holders = 1;  // The driver.
    ++generation_;
  }
  work_cv_.notify_all();
  RunItems();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return batch_.completed == n; });
}

void ThreadPool::ParallelForRanges(size_t n, RangeFuncRef body) {
  const size_t chunks = NumChunks(n);
  if (chunks == 0) return;
  const size_t base = n / chunks;
  const size_t rem = n % chunks;
  ParallelFor(chunks, [&](size_t i) {
    size_t begin = i * base + (i < rem ? i : rem);
    size_t end = begin + base + (i < rem ? 1 : 0);
    body(begin, end);
  });
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      ++batch_.holders;
    }
    RunItems();
  }
}

void ThreadPool::RunItems() {
  const ThreadPool* prev = t_running_pool;
  t_running_pool = this;
  // n and body are stable while holders > 0: the driver only resets the
  // batch after observing holders == 0 under mu_, and this thread
  // incremented holders under mu_ before reading them.
  const size_t n = batch_.n;
  const FuncRef body = batch_.body;
  for (;;) {
    size_t i = batch_.next.fetch_add(1);
    if (i >= n) break;
    body(i);
    std::lock_guard<std::mutex> lock(mu_);
    if (++batch_.completed == n) done_cv_.notify_all();
  }
  t_running_pool = prev;
  std::lock_guard<std::mutex> lock(mu_);
  if (--batch_.holders == 0) done_cv_.notify_all();
}

}  // namespace kc
