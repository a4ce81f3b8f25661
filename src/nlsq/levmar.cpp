#include "nlsq/levmar.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"

namespace hslb::nlsq {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

double clamp_to_box(const Problem& pb, std::size_t i, double v) {
  const double lo = pb.lower.empty() ? -kInf : pb.lower[i];
  const double hi = pb.upper.empty() ? kInf : pb.upper[i];
  return std::clamp(v, lo, hi);
}

double sum_of_squares(std::span<const double> r) {
  double acc = 0.0;
  for (double v : r) acc += v * v;
  return acc;
}
}  // namespace

double Problem::cost(std::span<const double> p) const {
  linalg::Vector r(num_residuals);
  residuals(p, r);
  return sum_of_squares(r);
}

void numeric_jacobian(const Problem& problem, std::span<const double> p,
                      linalg::Matrix& jac, linalg::Vector& scratch) {
  const std::size_t n = problem.num_params;
  const std::size_t m = problem.num_residuals;
  HSLB_EXPECTS(p.size() == n);
  if (jac.rows() != m || jac.cols() != n) jac.assign(m, n);
  scratch.resize(n + 2 * m);
  const std::span<double> q = std::span<double>(scratch).first(n);
  const std::span<double> r_fwd = std::span<double>(scratch).subspan(n, m);
  const std::span<double> r_bwd = std::span<double>(scratch).subspan(n + m, m);
  std::copy(p.begin(), p.end(), q.begin());
  for (std::size_t j = 0; j < n; ++j) {
    const double h = 1e-7 * (1.0 + std::fabs(q[j]));
    // Respect the box: fall back to one-sided differences at a bound.
    const double lo = problem.lower.empty() ? -kInf : problem.lower[j];
    const double hi = problem.upper.empty() ? kInf : problem.upper[j];
    const double fwd = std::min(q[j] + h, hi);
    const double bwd = std::max(q[j] - h, lo);
    HSLB_ASSERT(fwd > bwd);
    const double saved = q[j];
    q[j] = fwd;
    problem.residuals(q, r_fwd);
    q[j] = bwd;
    problem.residuals(q, r_bwd);
    q[j] = saved;
    for (std::size_t i = 0; i < m; ++i)
      jac(i, j) = (r_fwd[i] - r_bwd[i]) / (fwd - bwd);
  }
}

LevMarResult minimize(const Problem& problem, std::span<const double> start,
                      const LevMarOptions& options) {
  LevMarWorkspace ws;
  return minimize(problem, start, options, ws);
}

LevMarResult minimize(const Problem& problem, std::span<const double> start,
                      const LevMarOptions& options, LevMarWorkspace& ws) {
  HSLB_EXPECTS(problem.num_params > 0);
  HSLB_EXPECTS(problem.num_residuals >= 1);
  HSLB_EXPECTS(start.size() == problem.num_params);
  HSLB_EXPECTS(problem.lower.empty() || problem.lower.size() == problem.num_params);
  HSLB_EXPECTS(problem.upper.empty() || problem.upper.size() == problem.num_params);

  const std::size_t n = problem.num_params;
  const std::size_t m = problem.num_residuals;
  linalg::Vector& x = ws.x;
  linalg::Vector& x_new = ws.x_trial;
  linalg::Vector& r = ws.r;
  linalg::Vector& r_new = ws.r_trial;
  linalg::Vector& g = ws.jtr;
  linalg::Vector& delta = ws.step;
  linalg::Matrix& jac = ws.jac;
  x.assign(start.begin(), start.end());
  x_new.resize(n);
  r.resize(m);
  r_new.resize(m);
  g.resize(n);
  delta.resize(n);
  if (jac.rows() != m || jac.cols() != n) jac.assign(m, n);
  for (std::size_t i = 0; i < n; ++i) x[i] = clamp_to_box(problem, i, x[i]);

  LevMarResult result;
  // Residuals at x: evaluated once here, then taken over from each accepted
  // trial point, so no iteration re-evaluates the point whose cost it
  // already holds.
  problem.residuals(x, r);
  double cost = sum_of_squares(r);
  double lambda = options.initial_lambda;

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    if (problem.jacobian) {
      problem.jacobian(x, jac);
    } else {
      numeric_jacobian(problem, x, jac, ws.diff);
    }
    HSLB_ASSERT(jac.rows() == m);
    HSLB_ASSERT(jac.cols() == n);

    // Gradient of SSE: g = 2 J^T r (factor 2 irrelevant for tests below).
    jac.mul_transpose_into(r, g);

    // Projected-gradient convergence test: components pushing out of the
    // box at an active bound do not count.
    double gmax = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double lo = problem.lower.empty() ? -kInf : problem.lower[i];
      const double hi = problem.upper.empty() ? kInf : problem.upper[i];
      double gi = g[i];
      if (x[i] <= lo && gi > 0) gi = 0;   // descent would leave the box
      if (x[i] >= hi && gi < 0) gi = 0;
      gmax = std::max(gmax, std::fabs(gi));
    }
    if (gmax < options.gradient_tol * (1.0 + cost)) {
      result.converged = true;
      break;
    }

    jac.gram_into(ws.jtj);
    const linalg::Matrix& jtj = ws.jtj;

    bool stepped = false;
    while (lambda <= options.max_lambda) {
      // (J^T J + lambda * diag(J^T J) + eps I) delta = -J^T r
      linalg::Matrix& a = ws.damped;
      a = jtj;
      for (std::size_t i = 0; i < a.rows(); ++i)
        a(i, i) += lambda * std::max(jtj(i, i), 1e-12);
      if (!ws.chol.refactor(a)) {
        lambda *= options.lambda_up;
        continue;
      }
      std::copy(g.begin(), g.end(), delta.begin());
      ws.chol.solve_in_place(delta);
      for (double& d : delta) d = -d;

      for (std::size_t i = 0; i < n; ++i)
        x_new[i] = clamp_to_box(problem, i, x[i] + delta[i]);

      problem.residuals(x_new, r_new);
      const double new_cost = sum_of_squares(r_new);
      if (new_cost < cost) {
        // Accept.
        double step = 0.0, scale = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          step = std::max(step, std::fabs(x_new[i] - x[i]));
          scale = std::max(scale, std::fabs(x[i]));
        }
        const bool tiny_step = step < options.step_tol * (1.0 + scale);
        const bool tiny_decrease =
            (cost - new_cost) < options.cost_tol * (1.0 + cost);
        std::swap(x, x_new);
        std::swap(r, r_new);
        cost = new_cost;
        lambda = std::max(lambda * options.lambda_down, 1e-12);
        stepped = true;
        if (tiny_step || tiny_decrease) {
          result.converged = true;
        }
        break;
      }
      lambda *= options.lambda_up;
    }
    if (!stepped || result.converged) {
      // lambda exhausted: we are at a (numerical) local minimum.
      result.converged = result.converged || !stepped;
      break;
    }
  }

  result.params = x;
  result.cost = cost;
  return result;
}

}  // namespace hslb::nlsq
