// In-memory span recorder for the benchmark's traced runs, plus the
// arithmetic the per-layer metrics are computed with.
//
// A span is a named interval with a parent and a run id. Spans are kept in
// memory while the run executes and written out when it ends. A disabled
// tracer records nothing, so untraced runs pay one branch per hook.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
  int id = -1;
  int parent = -1;     ///< -1 = root
  int run = 0;         ///< scenario / batch this span belongs to
  double seconds() const { return end - start; }
};

/// Thread-safe span recorder. Open spans form one stack per thread; a span
/// opened on a worker thread (a probe on a ThreadPool worker) names its
/// parent explicitly.
class Tracer {
 public:
  static constexpr int kNone = -1;
  static constexpr int kAuto = -2;  ///< parent = innermost open span on this thread

  explicit Tracer(bool enabled = false);

  bool enabled() const { return enabled_; }
  double now() const;

  /// Opens a span; returns its id (kNone when disabled).
  int begin(const std::string& name, int parent = kAuto);
  /// Closes span `id` (opened by begin on this thread); no-op on kNone.
  void end(int id);

  /// Innermost span open on the calling thread, or kNone.
  int current() const;

  /// Run id stamped on spans opened from now on.
  void set_run(int run);

  /// Copy of every span recorded so far (open spans have end == start).
  std::vector<Span> spans() const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  int run_ = 0;              // guarded by mu_
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name,
             int parent = Tracer::kAuto)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// -- arithmetic over recorded spans -------------------------------------------

/// Length of the union of [start, end) intervals clipped to [lo, hi].
double covered_seconds(std::vector<std::pair<double, double>> intervals,
                       double lo, double hi);

/// Part of [lo, hi] not covered by the direct children of span `id`.
double self_seconds_in(const std::vector<Span>& spans, int id, double lo,
                       double hi);

/// A span's self time: its duration minus the part its children cover.
double self_seconds(const std::vector<Span>& spans, int id);

/// Sum of durations of every span called `name`.
double total_seconds(const std::vector<Span>& spans, const std::string& name);

/// Sum of self times of every span called `name`.
double total_self_seconds(const std::vector<Span>& spans,
                          const std::string& name);

/// Number of spans called `name`.
std::size_t count(const std::vector<Span>& spans, const std::string& name);

/// Empty when every child lies inside its parent's interval; otherwise a
/// description of the first offender.
std::string nesting_violation(const std::vector<Span>& spans);

// -- percentiles ---------------------------------------------------------------

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count the percentile was taken over
  std::size_t beyond = 0;   ///< samples strictly after its nearest rank
};

/// Nearest-rank percentile (q in (0, 1]): the ceil(q * n)-th smallest
/// sample. Empty when fewer than `min_beyond` samples lie beyond that rank,
/// so a tail is only reported when enough samples back it.
std::optional<Percentile> nearest_rank(std::vector<double> samples, double q,
                                       std::size_t min_beyond);

double median(std::vector<double> samples);

}  // namespace perfbench
