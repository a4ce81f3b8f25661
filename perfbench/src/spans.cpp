#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last, tagged with their
// tracer so two tracers never read each other's stack.
thread_local std::vector<std::pair<const Tracer*, int>> t_open;

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::begin(const std::string& name, int parent) {
  if (!enabled_) return kNone;
  if (parent == kAuto) parent = current();
  const double t = now();
  int id = kNone;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, t, t, id, parent, run_});
  }
  t_open.emplace_back(this, id);
  return id;
}

void Tracer::end(int id) {
  if (id == kNone) return;
  const double t = now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this && it->second == id) {
      t_open.erase(std::next(it).base());
      break;
    }
  }
}

int Tracer::current() const {
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it)
    if (it->first == this) return it->second;
  return kNone;
}

void Tracer::set_run(int run) {
  std::lock_guard<std::mutex> lock(mu_);
  run_ = run;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double covered_seconds(std::vector<std::pair<double, double>> intervals,
                       double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double reach = lo;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    const double from = std::max(a, reach);
    if (b > from) {
      total += b - from;
      reach = b;
    }
  }
  return total;
}

double self_seconds_in(const std::vector<Span>& spans, int id, double lo,
                       double hi) {
  if (hi <= lo) return 0.0;
  std::vector<std::pair<double, double>> children;
  for (const auto& s : spans)
    if (s.parent == id) children.emplace_back(s.start, s.end);
  return (hi - lo) - covered_seconds(std::move(children), lo, hi);
}

double self_seconds(const std::vector<Span>& spans, int id) {
  const Span& s = spans[static_cast<std::size_t>(id)];
  return self_seconds_in(spans, id, s.start, s.end);
}

double total_seconds(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  for (const auto& s : spans)
    if (s.name == name) total += s.seconds();
  return total;
}

double total_self_seconds(const std::vector<Span>& spans,
                          const std::string& name) {
  double total = 0.0;
  for (const auto& s : spans)
    if (s.name == name) total += self_seconds(spans, s.id);
  return total;
}

std::size_t count(const std::vector<Span>& spans, const std::string& name) {
  return static_cast<std::size_t>(std::count_if(
      spans.begin(), spans.end(),
      [&](const Span& s) { return s.name == name; }));
}

std::string nesting_violation(const std::vector<Span>& spans) {
  for (const auto& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.start < p.start || s.end > p.end) {
      return s.name + " [" + std::to_string(s.start) + ", " +
             std::to_string(s.end) + "] outside parent " + p.name + " [" +
             std::to_string(p.start) + ", " + std::to_string(p.end) + "]";
    }
  }
  return {};
}

std::optional<Percentile> nearest_rank(std::vector<double> samples, double q,
                                       std::size_t min_beyond) {
  if (samples.empty() || !(q > 0.0) || q > 1.0) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t r = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = n - r;
  if (beyond < min_beyond) return std::nullopt;
  return Percentile{samples[r - 1], n, beyond};
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
