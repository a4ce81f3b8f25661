#include "nlsq/levmar.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "nlsq/multistart.hpp"

namespace hslb::nlsq {
namespace {

/// Quadratic bowl: r_i = x_i - t_i, minimized exactly at x = t.
Problem bowl(const linalg::Vector& target) {
  Problem p;
  p.num_params = target.size();
  p.num_residuals = target.size();
  p.residuals = [target](std::span<const double> x, std::span<double> r) {
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = x[i] - target[i];
  };
  return p;
}

TEST(LevMar, FindsQuadraticMinimum) {
  const auto p = bowl({1.0, -2.0, 3.0});
  const auto res = minimize(p, std::vector<double>{0.0, 0.0, 0.0});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.params[0], 1.0, 1e-8);
  EXPECT_NEAR(res.params[1], -2.0, 1e-8);
  EXPECT_NEAR(res.params[2], 3.0, 1e-8);
  EXPECT_NEAR(res.cost, 0.0, 1e-14);
}

TEST(LevMar, RespectsBoxConstraints) {
  auto p = bowl({5.0});
  p.lower = {0.0};
  p.upper = {2.0};  // unconstrained optimum 5 is outside
  const auto res = minimize(p, std::vector<double>{1.0});
  EXPECT_NEAR(res.params[0], 2.0, 1e-9);
  EXPECT_NEAR(res.cost, 9.0, 1e-8);
}

TEST(LevMar, StartOutsideBoxIsProjected) {
  auto p = bowl({0.5});
  p.lower = {0.0};
  p.upper = {1.0};
  const auto res = minimize(p, std::vector<double>{42.0});
  EXPECT_NEAR(res.params[0], 0.5, 1e-8);
}

TEST(LevMar, RosenbrockConverges) {
  // Rosenbrock as least squares: r1 = 10(y - x^2), r2 = 1 - x.
  Problem p;
  p.num_params = 2;
  p.num_residuals = 2;
  p.residuals = [](std::span<const double> v, std::span<double> r) {
    r[0] = 10.0 * (v[1] - v[0] * v[0]);
    r[1] = 1.0 - v[0];
  };
  LevMarOptions opt;
  opt.max_iterations = 500;
  const auto res = minimize(p, std::vector<double>{-1.2, 1.0}, opt);
  EXPECT_NEAR(res.params[0], 1.0, 1e-6);
  EXPECT_NEAR(res.params[1], 1.0, 1e-6);
}

TEST(LevMar, ExponentialCurveFit) {
  // y = p0 * exp(p1 * t), synthetic exact data.
  const std::vector<double> ts{0.0, 0.5, 1.0, 1.5, 2.0};
  const double p0 = 2.0, p1 = -0.7;
  std::vector<double> ys;
  for (double t : ts) ys.push_back(p0 * std::exp(p1 * t));
  Problem p;
  p.num_params = 2;
  p.num_residuals = ts.size();
  p.residuals = [&](std::span<const double> v, std::span<double> r) {
    for (std::size_t i = 0; i < ts.size(); ++i)
      r[i] = ys[i] - v[0] * std::exp(v[1] * ts[i]);
  };
  const auto res = minimize(p, std::vector<double>{1.0, 0.0});
  EXPECT_NEAR(res.params[0], p0, 1e-6);
  EXPECT_NEAR(res.params[1], p1, 1e-6);
}

TEST(LevMar, NumericJacobianMatchesAnalytic) {
  Problem p;
  p.num_params = 2;
  p.num_residuals = 3;
  const std::vector<double> ts{1.0, 2.0, 3.0};
  p.residuals = [&](std::span<const double> v, std::span<double> r) {
    for (std::size_t i = 0; i < 3; ++i) r[i] = v[0] * ts[i] * ts[i] + v[1] / ts[i];
  };
  const std::vector<double> at{0.7, -1.3};
  linalg::Matrix jac;
  linalg::Vector scratch;
  numeric_jacobian(p, at, jac, scratch);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(jac(i, 0), ts[i] * ts[i], 1e-5);
    EXPECT_NEAR(jac(i, 1), 1.0 / ts[i], 1e-5);
  }
}

TEST(LevMar, CostNeverIncreases) {
  // Track costs across iterations via a wrapper counting evaluations.
  Problem p;
  p.num_params = 2;
  p.num_residuals = 4;
  p.residuals = [](std::span<const double> v, std::span<double> r) {
    r[0] = v[0] - 1.0;
    r[1] = v[1] + 2.0;
    r[2] = v[0] * v[1] - 3.0;
    r[3] = std::sin(v[0]);
  };
  const std::vector<double> start{5.0, 5.0};
  const double initial_cost = p.cost(start);
  const auto res = minimize(p, start);
  EXPECT_LE(res.cost, initial_cost);
}

TEST(LevMar, ReportedCostIsExactCostAtReportedParams) {
  // minimize() carries the accepted trial point's residuals forward instead
  // of re-evaluating them; the cost it reports must still be exactly the
  // SSE Problem::cost computes at the returned parameters.
  Problem rosenbrock;
  rosenbrock.num_params = 2;
  rosenbrock.num_residuals = 2;
  rosenbrock.residuals = [](std::span<const double> v, std::span<double> r) {
    r[0] = 10.0 * (v[1] - v[0] * v[0]);
    r[1] = 1.0 - v[0];
  };
  Problem coupled;
  coupled.num_params = 2;
  coupled.num_residuals = 4;
  coupled.residuals = [](std::span<const double> v, std::span<double> r) {
    r[0] = v[0] - 1.0;
    r[1] = v[1] + 2.0;
    r[2] = v[0] * v[1] - 3.0;
    r[3] = std::sin(v[0]);
  };
  auto boxed = bowl({5.0});
  boxed.lower = {0.0};
  boxed.upper = {2.0};
  const std::vector<double> ts{0.0, 0.5, 1.0, 1.5, 2.0};
  Problem exponential;
  exponential.num_params = 2;
  exponential.num_residuals = ts.size();
  exponential.residuals = [&ts](std::span<const double> v,
                                std::span<double> r) {
    for (std::size_t i = 0; i < ts.size(); ++i)
      r[i] = 2.0 * std::exp(-0.7 * ts[i]) - v[0] * std::exp(v[1] * ts[i]);
  };

  const struct {
    const Problem* problem;
    std::vector<double> start;
  } cases[] = {{&rosenbrock, {-1.2, 1.0}},
               {&coupled, {5.0, 5.0}},
               {&boxed, {1.0}},
               {&exponential, {1.0, 0.0}}};
  for (const auto& c : cases) {
    const auto res = minimize(*c.problem, c.start);
    EXPECT_GE(res.iterations, 1u);
    EXPECT_EQ(res.cost, c.problem->cost(res.params));
  }
  // A start outside the box: the cost is taken at the projected point.
  auto projected = bowl({0.5});
  projected.lower = {0.0};
  projected.upper = {1.0};
  LevMarOptions one_step;
  one_step.max_iterations = 1;
  const auto res = minimize(projected, std::vector<double>{42.0}, one_step);
  EXPECT_EQ(res.cost, projected.cost(res.params));
}

TEST(Multistart, EscapesLocalMinimum) {
  // f(x) = (x^2 - 4)^2 has minima at +-2; from a box biased positive and
  // several starts we must find cost ~0.
  Problem p;
  p.num_params = 1;
  p.num_residuals = 1;
  p.residuals = [](std::span<const double> v, std::span<double> r) {
    r[0] = v[0] * v[0] - 4.0;
  };
  const linalg::Vector lo{0.1}, hi{10.0};
  const auto res = minimize_multistart(p, lo, hi);
  EXPECT_NEAR(res.best.cost, 0.0, 1e-10);
  EXPECT_EQ(res.starts_tried, 16u);
  EXPECT_EQ(res.local_costs.size(), 16u);
}

TEST(Multistart, DeterministicForSeed) {
  Problem p;
  p.num_params = 1;
  p.num_residuals = 1;
  p.residuals = [](std::span<const double> v, std::span<double> r) {
    r[0] = std::cos(v[0]) + 0.1 * v[0];
  };
  const linalg::Vector lo{0.5}, hi{20.0};
  MultistartOptions opt;
  opt.seed = 99;
  const auto r1 = minimize_multistart(p, lo, hi, opt);
  const auto r2 = minimize_multistart(p, lo, hi, opt);
  EXPECT_EQ(r1.best.params[0], r2.best.params[0]);
  EXPECT_EQ(r1.local_costs, r2.local_costs);
}

TEST(Multistart, RejectsInfiniteStartBox) {
  Problem p;
  p.num_params = 1;
  p.num_residuals = 1;
  p.residuals = [](std::span<const double> v, std::span<double> r) {
    r[0] = v[0];
  };
  const linalg::Vector lo{0.0};
  const linalg::Vector hi{std::numeric_limits<double>::infinity()};
  EXPECT_THROW(minimize_multistart(p, lo, hi), ContractViolation);
}

}  // namespace
}  // namespace hslb::nlsq
