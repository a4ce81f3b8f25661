#include "common/parallel.hpp"

#include "common/contracts.hpp"

namespace hslb {

namespace {

/// The pools whose job bodies this thread is currently executing, innermost
/// first, as a chain of scopes on this thread's stack. Catches same-pool
/// reentrancy at any depth (which would deadlock behind the caller's own
/// in-flight job) while still allowing a body to drive a *different* pool.
struct RunningPoolScope;
thread_local const RunningPoolScope* g_running_scope = nullptr;

/// Pool lent to the code this thread runs (ThreadPool::Lend).
thread_local ThreadPool* g_lent_pool = nullptr;

struct RunningPoolScope {
  explicit RunningPoolScope(const ThreadPool* pool)
      : pool(pool), previous(g_running_scope) {
    g_running_scope = this;
  }
  ~RunningPoolScope() { g_running_scope = previous; }
  const ThreadPool* pool;
  const RunningPoolScope* previous;
};

bool running_job_of(const ThreadPool* pool) {
  for (const RunningPoolScope* s = g_running_scope; s != nullptr;
       s = s->previous) {
    if (s->pool == pool) return true;
  }
  return false;
}

}  // namespace

std::size_t ThreadPool::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::Lend::Lend(ThreadPool& pool) : previous_(g_lent_pool) {
  g_lent_pool = &pool;
}

ThreadPool::Lend::~Lend() { g_lent_pool = previous_; }

ThreadPool* ThreadPool::lent() {
  if (g_lent_pool == nullptr || running_job_of(g_lent_pool)) return nullptr;
  return g_lent_pool;
}

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads == 0 ? hardware_threads() : threads) {
  workers_.reserve(size_ - 1);
  for (std::size_t w = 1; w < size_; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    {
      const RunningPoolScope scope(this);
      run_indices();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_indices() {
  for (;;) {
    const std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_size_) return;
    try {
      (*body_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  HSLB_EXPECTS(static_cast<bool>(body));
  HSLB_EXPECTS(!running_job_of(this));  // reentrancy would self-deadlock
  if (n == 0) return;
  if (size_ == 1 || n == 1) {
    const RunningPoolScope scope(this);
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Concurrent-caller guard: jobs from overlapping callers (e.g. two
  // Pipeline runs batched onto one service pool) run one at a time, in
  // submission order, each with the whole pool.
  std::lock_guard<std::mutex> submit(submit_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HSLB_ASSERT(body_ == nullptr);  // submit_mutex_ guarantees exclusivity
    body_ = &body;
    job_size_ = n;
    next_index_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    active_workers_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  {
    const RunningPoolScope scope(this);
    run_indices();  // the calling thread works too
  }
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
    body_ = nullptr;
    job_size_ = 0;
    error = first_error_;
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  ThreadPool pool(threads == 0 ? 0 : threads);
  pool.parallel_for(n, body);
}

}  // namespace hslb
