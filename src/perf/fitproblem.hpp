// The Fit step's inner loop: the least-squares problem of one fit,
//
//   r_i(p) = y_i - sum_k term_k(p_k, n_i),
//
// evaluated through a per-fit context. Building a FitProblem builds the
// context once: the distinct node counts and which one each sample sits
// at, 1/n and ln n per count, the values of pinned terms, and one
// GridCache per fitted term (the power law keeps n^c there, so the
// Jacobian at an accepted point reuses the powers its residuals computed).
// After that the residual and Jacobian callbacks allocate nothing.
//
// Terms are summed per sample in spec order starting from 0.0, and every
// term value and gradient comes from the same expression as
// CostModel::eval and CostTerm::grad_params, so the residuals and the
// Jacobian equal theirs bit for bit.
#pragma once

#include <span>
#include <vector>

#include "nlsq/levmar.hpp"
#include "perf/benchdata.hpp"
#include "perf/terms.hpp"

namespace hslb::perf {

class FitProblem {
 public:
  /// Requires every sample at nodes >= 1 and a spec with at least one
  /// fitted parameter. `spec` must outlive the problem.
  FitProblem(const SampleSet& samples, const CostModelSpec& spec,
             const FitScales& scales);

  // The callbacks point into this object, and its caches belong to one
  // fit: neither copy nor share it between threads.
  FitProblem(const FitProblem&) = delete;
  FitProblem& operator=(const FitProblem&) = delete;

  /// Residuals, analytic Jacobian and the positivity/term box, in spec
  /// parameter order.
  const nlsq::Problem& problem() const { return problem_; }

  /// Multistart sampling box (each term's start_box, in spec order).
  std::span<const double> start_lower() const { return start_lo_; }
  std::span<const double> start_upper() const { return start_hi_; }

 private:
  struct Entry {
    const CostTerm* term = nullptr;
    std::size_t offset = 0;  ///< first parameter in the concatenated vector
    std::size_t count = 0;   ///< parameters (0 = pinned)
    std::vector<double> values;  ///< per node count; fixed when pinned
    std::vector<double> grads;   ///< per node count x count
    GridCache cache;
  };

  void residuals(std::span<const double> p, std::span<double> r);
  void jacobian(std::span<const double> p, linalg::Matrix& jac);

  std::vector<double> seconds_;   ///< per sample
  std::vector<std::size_t> at_;   ///< per sample: index into the grid
  std::vector<double> nodes_, inv_, log_;  ///< per distinct node count
  NodeGrid grid_;
  std::vector<Entry> entries_;
  std::vector<double> total_;     ///< per node count: model value
  nlsq::Problem problem_;
  linalg::Vector start_lo_, start_hi_;
};

}  // namespace hslb::perf
