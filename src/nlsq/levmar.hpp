// Box-constrained nonlinear least squares by Levenberg-Marquardt with
// gradient projection.
//
// This implements the Fit step of HSLB (§III-C, Table II line 10): the
// objective min sum_i (y_i - T(n_i; a,b,c,d))^2 subject to a,b,c,d >= 0 is
// non-convex, so the paper recommends trying several starting points; see
// multistart.hpp for that wrapper.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "linalg/decomp.hpp"
#include "linalg/matrix.hpp"

namespace hslb::nlsq {

/// Residual function r(p) with an optional analytic Jacobian dr/dp.
/// Both callbacks write into caller-owned buffers, so the solver's inner
/// loop allocates nothing. When `jacobian` is empty, central finite
/// differences are used.
struct Problem {
  std::size_t num_params = 0;
  std::size_t num_residuals = 0;
  /// Writes r(p) into `r` (num_residuals entries).
  std::function<void(std::span<const double> p, std::span<double> r)>
      residuals;
  /// Optional: writes dr/dp into `jac`, already shaped num_residuals x
  /// num_params.
  std::function<void(std::span<const double> p, linalg::Matrix& jac)>
      jacobian;

  /// Box bounds; empty means unbounded in that direction.
  linalg::Vector lower, upper;  // sized num_params, +-inf allowed

  /// SSE cost at p.
  double cost(std::span<const double> p) const;
};

struct LevMarOptions {
  std::size_t max_iterations = 200;
  double gradient_tol = 1e-10;   ///< projected-gradient infinity norm
  double step_tol = 1e-12;       ///< relative step size
  double cost_tol = 1e-14;       ///< relative cost decrease
  double initial_lambda = 1e-3;
  double lambda_up = 10.0;
  double lambda_down = 0.3;
  double max_lambda = 1e12;
};

struct LevMarResult {
  linalg::Vector params;
  double cost = 0.0;            ///< sum of squared residuals at `params`
  std::size_t iterations = 0;
  bool converged = false;
};

/// Working storage of one LM run: the iterate and the trial point, their
/// residuals, the Jacobian, J^T r, J^T J, the damped matrix, its Cholesky
/// factor and the step. Shaped on first use; runs that reuse a workspace
/// on a problem of the same size (the starts of minimize_multistart)
/// allocate nothing for it.
struct LevMarWorkspace {
  linalg::Vector x, x_trial, r, r_trial, jtr, step;
  linalg::Matrix jac, jtj, damped;
  linalg::Cholesky chol;
  /// Finite-difference scratch (numeric_jacobian).
  linalg::Vector diff;
};

/// Runs LM from `start` (projected into the box first) in its own
/// workspace.
LevMarResult minimize(const Problem& problem, std::span<const double> start,
                      const LevMarOptions& options = {});

/// Same run in a caller-owned workspace.
LevMarResult minimize(const Problem& problem, std::span<const double> start,
                      const LevMarOptions& options, LevMarWorkspace& ws);

/// Central-difference Jacobian at `p` into `jac` (reshaped to
/// num_residuals x num_params). `scratch` holds the perturbed point and
/// the two residual vectors; it is resized on first use.
void numeric_jacobian(const Problem& problem, std::span<const double> p,
                      linalg::Matrix& jac, linalg::Vector& scratch);

}  // namespace hslb::nlsq
