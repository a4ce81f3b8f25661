// Fixed-size thread pool with a parallel_for / parallel_map API.
//
// The HSLB pipeline's Gather and Fit stages are embarrassingly parallel
// (independent probes, independent per-task fits). Determinism is preserved
// by construction: results are written by index, never in completion order,
// and callers derive any per-task randomness from the task index (see
// hslb::derive_seed), so the output is identical for every thread count.
//
// Workers are started once and reused across parallel_for calls; the
// calling thread participates in the work, so a pool of size 1 degenerates
// to a plain serial loop with no synchronization beyond one atomic.
//
// Concurrent external callers are safe: parallel_for calls issued from
// different threads against one pool are serialized in submission order
// (each job runs to completion with the full pool before the next starts),
// so overlapping hslb::Pipeline runs may share a pool and each still
// computes exactly what it would have computed alone — index-addressed
// writes plus job-at-a-time execution keep every caller's results
// identical for any thread count. What stays forbidden is *reentrancy*:
// a job body calling parallel_for on the pool that is running it would
// deadlock behind its own job, so that is rejected loudly.
//
// A pool can also be *lent* to the code a thread calls (ThreadPool::Lend),
// so a deep callee — the branch-and-bound search inside an application's
// Solve hook — can run on the caller's workers without the pool travelling
// through every signature in between. The lend is thread-local, and it is
// invisible while the thread is running a job of the lent pool, so work
// nested inside the pool's own jobs stays serial instead of reentering it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hslb {

class ThreadPool {
 public:
  /// `threads` = total workers incl. the calling thread; 0 means
  /// hardware_concurrency(). A pool of size 1 spawns no threads.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total worker count (including the calling thread).
  std::size_t size() const { return size_; }

  /// Runs body(i) for every i in [0, n), distributing indices over the pool
  /// (atomic work-stealing counter). Blocks until all indices finished.
  /// The first exception thrown by any body is rethrown on the caller.
  /// Safe to call from multiple threads at once — overlapping jobs are
  /// serialized in submission order. Not reentrant: a body must not call
  /// parallel_for on the pool that is currently running it (asserts).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Like parallel_for, but collects fn(i) into a vector ordered by index.
  template <typename Fn>
  auto parallel_map(std::size_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{}))> {
    std::vector<decltype(fn(std::size_t{}))> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads();

  /// RAII scope lending `pool` to the code this thread runs until the scope
  /// ends; the previous lend (if any) is restored on exit, so scopes nest.
  class Lend {
   public:
    explicit Lend(ThreadPool& pool);
    ~Lend();
    Lend(const Lend&) = delete;
    Lend& operator=(const Lend&) = delete;

   private:
    ThreadPool* previous_;
  };

  /// The pool lent on this thread, or null when none is lent or when this
  /// thread is running a job of the lent pool (parallel_for on it would
  /// reenter the pool).
  static ThreadPool* lent();

 private:
  void worker_loop();
  void run_indices();

  std::size_t size_ = 1;
  std::vector<std::thread> workers_;

  /// Serializes external parallel_for callers: held from submission to
  /// completion, so concurrent jobs queue instead of clobbering the
  /// single-job state below.
  std::mutex submit_mutex_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;   ///< bumped per parallel_for call
  std::size_t active_workers_ = 0; ///< workers still in run_indices()

  // Current job (valid while a parallel_for is in flight).
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t job_size_ = 0;
  std::atomic<std::size_t> next_index_{0};
  std::exception_ptr first_error_;
};

/// One-shot helper: parallel_for over a transient pool of `threads` workers
/// (serial when threads <= 1).
void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace hslb
