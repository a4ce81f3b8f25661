// Golden for the LP path under branch and bound: a small FMO water min-max
// MINLP solved with the default options must reproduce the exact search —
// node, cut and LP solve counts, simplex pivots by kind, refactorizations,
// Forrest-Tomlin updates — the allocation, and the objective's exact bits.
// The determinism tests elsewhere compare runs against each other (thread
// counts); this one pins the path itself, so any change to the sparse
// kernels, pricing or tie-breaks that alters a single pivot shows here.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "hslb/budget.hpp"
#include "hslb/pipeline.hpp"
#include "hslb/registry.hpp"
#include "minlp/bnb.hpp"
#include "substrates/registry_builtins.hpp"

namespace hslb {
namespace {

constexpr long long kNodes = 384;

/// Fits of a 24-fragment water cluster (greedy solve; only the fits are used).
std::vector<std::pair<std::string, perf::FitResult>> water_fits() {
  substrates::register_builtin_substrates();
  ScenarioSpec spec;
  spec.substrate = "fmo";
  spec.variant = "water";
  spec.tasks = 24;
  spec.nodes = kNodes;
  spec.system_seed = 9;
  spec.objective = Objective::MinMax;
  auto app = SubstrateRegistry::instance().make(spec);
  PipelineOptions opt;
  opt.threads = 1;
  return Pipeline(opt).run(*app).fits;
}

TEST(SolverPathGolden, FmoWaterMinMaxSearchIsPinned) {
  const auto fits = water_fits();
  ASSERT_EQ(fits.size(), 24u);
  std::vector<BudgetTask> tasks;
  for (const auto& [name, fit] : fits)
    tasks.push_back(BudgetTask{name, fit.model, 1, kNodes});
  const auto model = build_budget_minlp(tasks, kNodes, Objective::MinMax);
  const minlp::BnbResult r = minlp::solve(model);

  ASSERT_EQ(r.status, minlp::BnbStatus::Optimal);
  EXPECT_EQ(r.nodes, 323u);
  EXPECT_EQ(r.cuts, 246u);
  EXPECT_EQ(r.lp_solves, 1534u);
  EXPECT_EQ(r.lp_pivots, 11079u);
  EXPECT_EQ(r.lp_stats.refactorizations, 3784u);
  EXPECT_EQ(r.lp_stats.ft_updates, 11079u);
  EXPECT_EQ(r.lp_stats.phase1_pivots, 4608u);
  EXPECT_EQ(r.lp_stats.dual_pivots, 3968u);

  std::vector<long long> alloc;
  for (std::size_t f = 0; f < tasks.size(); ++f)
    alloc.push_back(std::llround(r.x[f]));
  const std::vector<long long> expected_alloc = {
      3, 22, 3, 92, 3, 3, 3, 28, 3, 83, 3, 3, 3, 81, 3, 3, 3, 3, 3, 3, 3, 24, 3, 3};
  EXPECT_EQ(alloc, expected_alloc);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.objective), 4593696810871442042u)
      << "objective " << r.objective;
}

}  // namespace
}  // namespace hslb
