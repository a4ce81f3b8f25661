#include "perf/fitproblem.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace hslb::perf {

FitProblem::FitProblem(const SampleSet& samples, const CostModelSpec& spec,
                       const FitScales& scales) {
  HSLB_EXPECTS(!samples.empty());
  HSLB_EXPECTS(!spec.empty());

  // Distinct node counts, sorted; each sample points at its own.
  for (const auto& s : samples) {
    HSLB_EXPECTS(s.nodes >= 1.0);
    nodes_.push_back(s.nodes);
  }
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  for (const auto& s : samples) {
    seconds_.push_back(s.seconds);
    at_.push_back(static_cast<std::size_t>(
        std::lower_bound(nodes_.begin(), nodes_.end(), s.nodes) -
        nodes_.begin()));
  }
  for (const double n : nodes_) {
    inv_.push_back(1.0 / n);
    log_.push_back(std::log(n));
  }
  grid_ = NodeGrid{nodes_, inv_, log_};
  total_.resize(nodes_.size());

  std::size_t num_params = 0;
  for (const auto& term : spec) {
    Entry e;
    e.term = term.get();
    e.offset = num_params;
    e.count = term->num_params();
    e.values.resize(nodes_.size());
    e.grads.resize(nodes_.size() * e.count);
    // Room for one cached value per node count, so no later call allocates.
    e.cache.values.reserve(nodes_.size());
    // A pinned term does not depend on the parameters: evaluate it now.
    if (e.count == 0) e.term->eval_grid({}, grid_, e.cache, e.values, {});
    num_params += e.count;
    entries_.push_back(std::move(e));
  }
  HSLB_EXPECTS(num_params > 0);

  problem_.num_params = num_params;
  problem_.num_residuals = samples.size();
  problem_.residuals = [this](std::span<const double> p,
                              std::span<double> r) { residuals(p, r); };
  problem_.jacobian = [this](std::span<const double> p,
                             linalg::Matrix& jac) { jacobian(p, jac); };

  // Positivity constraints (Table II, line 11) and each term's own bound
  // windows, concatenated in spec order.
  problem_.lower = linalg::Vector(num_params);
  problem_.upper = linalg::Vector(num_params);
  start_lo_ = linalg::Vector(num_params);
  start_hi_ = linalg::Vector(num_params);
  for (const Entry& e : entries_) {
    if (e.count == 0) continue;
    const auto slot = [&e](linalg::Vector& v) {
      return std::span<double>(v).subspan(e.offset, e.count);
    };
    e.term->fit_bounds(scales, slot(problem_.lower), slot(problem_.upper));
    e.term->start_box(scales, slot(start_lo_), slot(start_hi_));
  }
}

void FitProblem::residuals(std::span<const double> p, std::span<double> r) {
  HSLB_ASSERT(p.size() == problem_.num_params);
  HSLB_ASSERT(r.size() == seconds_.size());
  for (Entry& e : entries_) {
    if (e.count == 0) continue;
    e.term->eval_grid(p.subspan(e.offset, e.count), grid_, e.cache, e.values,
                      {});
  }
  // CostModel::eval's sum: from 0.0, in spec order.
  for (std::size_t k = 0; k < total_.size(); ++k) {
    double v = 0.0;
    for (const Entry& e : entries_) v += e.values[k];
    total_[k] = v;
  }
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = seconds_[i] - total_[at_[i]];
}

void FitProblem::jacobian(std::span<const double> p, linalg::Matrix& jac) {
  HSLB_ASSERT(p.size() == problem_.num_params);
  HSLB_ASSERT(jac.rows() == seconds_.size());
  HSLB_ASSERT(jac.cols() == problem_.num_params);
  for (Entry& e : entries_) {
    if (e.count == 0) continue;
    e.term->eval_grid(p.subspan(e.offset, e.count), grid_, e.cache, {},
                      e.grads);
  }
  for (std::size_t i = 0; i < seconds_.size(); ++i) {
    const std::span<double> row = jac.row(i);
    for (const Entry& e : entries_) {
      const double* g = e.grads.data() + at_[i] * e.count;
      for (std::size_t j = 0; j < e.count; ++j) row[e.offset + j] = -g[j];
    }
  }
}

}  // namespace hslb::perf
