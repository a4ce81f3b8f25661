// Allocation guard for the Fit step's inner loop: a Levenberg-Marquardt
// run allocates its workspace once, so its allocation count must not
// depend on how many iterations it takes, and the fit problem's residual
// and Jacobian callbacks must not touch the heap once the problem is
// built. This binary replaces the global operator new to count calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "nlsq/levmar.hpp"
#include "perf/fitproblem.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hslb {
namespace {

/// r_j = exp(-x_j): the cost keeps falling as x grows, so with every
/// tolerance at zero the run goes on until the iteration cap.
nlsq::Problem receding(bool analytic) {
  nlsq::Problem p;
  p.num_params = 2;
  p.num_residuals = 2;
  p.residuals = [](std::span<const double> x, std::span<double> r) {
    r[0] = std::exp(-x[0]);
    r[1] = std::exp(-2.0 * x[1]);
  };
  if (analytic) {
    p.jacobian = [](std::span<const double> x, linalg::Matrix& jac) {
      jac(0, 0) = -std::exp(-x[0]);
      jac(0, 1) = 0.0;
      jac(1, 0) = 0.0;
      jac(1, 1) = -2.0 * std::exp(-2.0 * x[1]);
    };
  }
  return p;
}

/// Allocations made by one minimize() call capped at `iterations`.
std::size_t allocations_of_run(const nlsq::Problem& p, std::size_t iterations) {
  nlsq::LevMarOptions opt;
  opt.max_iterations = iterations;
  opt.gradient_tol = 0.0;
  opt.step_tol = 0.0;
  opt.cost_tol = 0.0;
  const std::vector<double> start{0.5, 0.25};
  const std::size_t before = g_allocations.load();
  const nlsq::LevMarResult res = nlsq::minimize(p, start, opt);
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(res.iterations, iterations);
  EXPECT_FALSE(res.converged);
  return after - before;
}

TEST(FitAllocations, LevMarIterationsDoNotAllocate) {
  for (const bool analytic : {true, false}) {
    const nlsq::Problem p = receding(analytic);
    const std::size_t short_run = allocations_of_run(p, 5);
    const std::size_t long_run = allocations_of_run(p, 150);
    EXPECT_EQ(short_run, long_run)
        << (analytic ? "analytic" : "numeric") << " Jacobian";
  }
}

TEST(FitAllocations, FitProblemCallbacksDoNotAllocate) {
  perf::SampleSet samples;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0})
    samples.push_back({n, 300.0 / n + 0.01 * n + 2.0});
  samples.push_back({8.0, 45.0});  // a repeated node count, as refits fold in
  perf::FitScales scales;
  scales.max_y = 302.01;
  scales.min_y = 11.32;
  scales.max_an = 302.01;

  const perf::CostModelSpec specs[] = {
      {perf::power_law_term()},
      {perf::power_law_term(), perf::make_comm_term(0.05),
       perf::make_memory_term(40.0, 16.0, 0.5)},
  };
  for (const auto& spec : specs) {
    const perf::FitProblem fp(samples, spec, scales);
    const nlsq::Problem& p = fp.problem();
    std::vector<double> params(p.num_params, 0.5);
    std::vector<double> r(p.num_residuals);
    linalg::Matrix jac(p.num_residuals, p.num_params);

    const std::size_t before = g_allocations.load();
    for (const double c : {1.0, 1.5, 1.5, 2.75}) {
      params[2] = c;  // the power law's exponent: n^c recomputed or reused
      p.residuals(params, r);
      p.jacobian(params, jac);
    }
    const std::size_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u) << spec.size() << "-term spec";
  }
}

}  // namespace
}  // namespace hslb
