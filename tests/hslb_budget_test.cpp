#include "hslb/budget.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "hslb/budget_solve.hpp"
#include "minlp/bnb.hpp"
#include "minlp/cuts.hpp"

namespace hslb {
namespace {

BudgetTask task(const std::string& name, double a, double d, long long max_nodes) {
  return BudgetTask{name, perf::Model{a, 0.0, 1.0, d}, 1, max_nodes};
}

TEST(MinMax, TwoIdenticalTasksSplitEvenly) {
  const std::vector<BudgetTask> tasks{task("a", 100, 0, 64), task("b", 100, 0, 64)};
  const auto alloc = solve_min_max(tasks, 64);
  EXPECT_EQ(alloc.tasks[0].nodes, 32);
  EXPECT_EQ(alloc.tasks[1].nodes, 32);
  EXPECT_NEAR(alloc.predicted_total, 100.0 / 32.0, 1e-12);
}

TEST(MinMax, ProportionalToWork) {
  // Work 300 vs 100 with pure a/n scaling: optimal split ~3:1.
  const std::vector<BudgetTask> tasks{task("big", 300, 0, 128),
                                      task("small", 100, 0, 128)};
  const auto alloc = solve_min_max(tasks, 100);
  EXPECT_NEAR(static_cast<double>(alloc.tasks[0].nodes), 75.0, 1.0);
  EXPECT_NEAR(static_cast<double>(alloc.tasks[1].nodes), 25.0, 1.0);
}

TEST(MinMax, SerialFloorStopsAllocation) {
  // One task is all serial: feeding it nodes is pointless, so the greedy
  // stops once it dominates, leaving budget unused.
  const std::vector<BudgetTask> tasks{task("serial", 0.0, 50.0, 1000),
                                      task("scalable", 100.0, 0.0, 1000)};
  const auto alloc = solve_min_max(tasks, 1000);
  EXPECT_NEAR(alloc.predicted_total, 50.0, 1e-9);
  // scalable got enough to drop below 50 s, then the greedy stopped.
  EXPECT_LE(alloc.find("scalable").predicted_seconds, 50.0 + 1e-9);
  EXPECT_LT(alloc.total_nodes(), 1000);
}

TEST(MinMax, RespectsMaxNodes) {
  std::vector<BudgetTask> tasks{task("a", 1000, 0, 8), task("b", 10, 0, 64)};
  const auto alloc = solve_min_max(tasks, 64);
  EXPECT_LE(alloc.find("a").nodes, 8);
}

TEST(MinMax, RequiresFeasibleMinimums) {
  std::vector<BudgetTask> tasks{task("a", 1, 0, 4), task("b", 1, 0, 4)};
  EXPECT_THROW(solve_min_max(tasks, 1), ContractViolation);
}

TEST(MinSum, PrefersHighestMarginalGain) {
  // min-sum pours nodes where the absolute gain is largest: the big task.
  const std::vector<BudgetTask> tasks{task("big", 1000, 0, 100),
                                      task("small", 10, 0, 100)};
  const auto alloc = solve_min_sum(tasks, 20);
  EXPECT_GT(alloc.find("big").nodes, alloc.find("small").nodes);
}

TEST(MinSum, StopsWhenNoGain) {
  const std::vector<BudgetTask> tasks{task("serial", 0, 5, 100)};
  const auto alloc = solve_min_sum(tasks, 100);
  EXPECT_EQ(alloc.tasks[0].nodes, 1);  // extra nodes gain nothing
}

TEST(MaxMin, UsesExchangeToEqualize) {
  const std::vector<BudgetTask> tasks{task("a", 100, 0, 64), task("b", 100, 0, 64)};
  const auto alloc = solve_max_min(tasks, 64);
  // Any split gives min(T_a, T_b) maximized at the even split.
  EXPECT_EQ(alloc.tasks[0].nodes + alloc.tasks[1].nodes, 64);
  EXPECT_NEAR(alloc.predicted_total, 100.0 / 32.0, 0.2);
}

TEST(Objectives, EvaluateObjectiveSemantics) {
  const std::vector<BudgetTask> tasks{task("a", 100, 0, 64), task("b", 50, 0, 64)};
  const std::vector<long long> nodes{10, 10};  // T = 10, 5
  EXPECT_DOUBLE_EQ(evaluate_objective(tasks, nodes, Objective::MinMax), 10.0);
  EXPECT_DOUBLE_EQ(evaluate_objective(tasks, nodes, Objective::MaxMin), 5.0);
  EXPECT_DOUBLE_EQ(evaluate_objective(tasks, nodes, Objective::MinSum), 15.0);
}

TEST(Objectives, MinMaxBeatsMinSumOnMakespan) {
  // §III-D: the min-sum objective is "obviously out of consideration";
  // check it indeed yields a worse makespan on a diverse system.
  const std::vector<BudgetTask> tasks{task("big", 500, 1.0, 256),
                                      task("mid", 100, 0.5, 256),
                                      task("small", 10, 0.1, 256)};
  const auto mm = solve_min_max(tasks, 64);
  const auto ms = solve_min_sum(tasks, 64);
  std::vector<long long> ms_nodes;
  for (const auto& t : ms.tasks) ms_nodes.push_back(t.nodes);
  const double ms_makespan =
      evaluate_objective(tasks, ms_nodes, Objective::MinMax);
  EXPECT_LE(mm.predicted_total, ms_makespan + 1e-9);
}

TEST(SolveBudget, DispatchesOnObjective) {
  const std::vector<BudgetTask> tasks{task("a", 100, 0, 64), task("b", 50, 0, 64)};
  EXPECT_EQ(solve_budget(tasks, 32, Objective::MinMax).predicted_total,
            solve_min_max(tasks, 32).predicted_total);
  EXPECT_EQ(solve_budget(tasks, 32, Objective::MinSum).predicted_total,
            solve_min_sum(tasks, 32).predicted_total);
  EXPECT_EQ(solve_budget(tasks, 32, Objective::MaxMin).predicted_total,
            solve_max_min(tasks, 32).predicted_total);
}

// ---------------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------------

std::vector<BudgetTask> random_tasks(Rng& rng, long long max_nodes) {
  const int f = static_cast<int>(rng.uniform_int(2, 5));
  std::vector<BudgetTask> tasks;
  for (int i = 0; i < f; ++i) {
    perf::Model m;
    m.a = rng.uniform(10.0, 2000.0);
    m.b = rng.uniform() < 0.5 ? 0.0 : rng.uniform(1e-6, 1e-3);
    m.c = rng.uniform(1.0, 1.6);
    m.d = rng.uniform(0.0, 5.0);
    tasks.push_back(BudgetTask{"t" + std::to_string(i), m, 1, max_nodes});
  }
  return tasks;
}

class MinMaxExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(MinMaxExhaustive, GreedyMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2711 + 5);
  const long long budget = rng.uniform_int(4, 18);
  auto tasks = random_tasks(rng, budget);
  if (static_cast<long long>(tasks.size()) > budget) return;

  // Brute force over all allocations summing to <= budget.
  double best = 1e300;
  std::vector<long long> nodes(tasks.size(), 1);
  std::function<void(std::size_t, long long)> rec = [&](std::size_t i,
                                                        long long left) {
    if (i == tasks.size()) {
      best = std::min(best, evaluate_objective(tasks, nodes, Objective::MinMax));
      return;
    }
    const long long remaining_min =
        static_cast<long long>(tasks.size() - i - 1);
    for (long long n = 1; n <= left - remaining_min; ++n) {
      nodes[i] = n;
      rec(i + 1, left - n);
    }
  };
  rec(0, budget);

  const auto greedy = solve_min_max(tasks, budget);
  EXPECT_NEAR(greedy.predicted_total, best, 1e-9 * (1.0 + best));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MinMaxExhaustive, ::testing::Range(0, 40));

class MaxMinExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinExhaustive, ExchangeHeuristicNearBruteForce) {
  // max-min is a documented heuristic (local search); require it to land
  // within a few percent of the exhaustive optimum on small instances.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 33391 + 2);
  const long long budget = rng.uniform_int(4, 14);
  auto tasks = random_tasks(rng, budget);
  if (static_cast<long long>(tasks.size()) > budget) return;

  // Brute force over allocations spending the budget exactly (the max-min
  // convention; see solve_max_min's doc comment).
  double best = -1e300;
  std::vector<long long> nodes(tasks.size(), 1);
  std::function<void(std::size_t, long long)> rec = [&](std::size_t i,
                                                        long long left) {
    if (i + 1 == tasks.size()) {
      nodes[i] = left;
      best = std::max(best, evaluate_objective(tasks, nodes, Objective::MaxMin));
      return;
    }
    const long long remaining_min =
        static_cast<long long>(tasks.size() - i - 1);
    for (long long n = 1; n <= left - remaining_min; ++n) {
      nodes[i] = n;
      rec(i + 1, left - n);
    }
  };
  rec(0, budget);

  const auto heuristic = solve_max_min(tasks, budget);
  EXPECT_GE(heuristic.predicted_total, 0.90 * best);
  EXPECT_LE(heuristic.predicted_total, best + 1e-9);  // never exceeds optimum
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaxMinExhaustive, ::testing::Range(0, 30));

class BudgetVsBnb : public ::testing::TestWithParam<int> {};

TEST_P(BudgetVsBnb, GreedyMatchesBranchAndBound) {
  // FMO-6: the specialized polynomial solver agrees with the general
  // MINLP branch-and-bound on the same model.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 15013 + 1);
  const long long budget = rng.uniform_int(6, 40);
  auto tasks = random_tasks(rng, budget);
  if (static_cast<long long>(tasks.size()) > budget) return;

  for (Objective obj : {Objective::MinMax, Objective::MinSum}) {
    const auto greedy = solve_budget(tasks, budget, obj);
    const auto model = build_budget_minlp(tasks, budget, obj);
    const auto bnb = minlp::solve(model);
    ASSERT_EQ(bnb.status, minlp::BnbStatus::Optimal);
    EXPECT_NEAR(bnb.objective, greedy.predicted_total,
                1e-5 * (1.0 + greedy.predicted_total))
        << to_string(obj);
    const auto alloc = allocation_from_minlp(tasks, bnb.x, obj);
    EXPECT_LE(alloc.total_nodes(), budget);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BudgetVsBnb, ::testing::Range(0, 25));

TEST(BudgetMinlp, RejectsMaxMin) {
  const std::vector<BudgetTask> tasks{task("a", 10, 0, 8), task("b", 10, 0, 8)};
  EXPECT_THROW(build_budget_minlp(tasks, 8, Objective::MaxMin),
               ContractViolation);
}

// -- The budget-solve seam ----------------------------------------------------

/// Three fitted-looking power-law tasks; `comm` adds a pinned communication
/// term, which gives each task a split variable in the MINLP.
std::vector<BudgetTask> seam_tasks(bool comm) {
  std::vector<BudgetTask> tasks{
      {"a", perf::Model{400.0, 0.05, 1.2, 1.0}, 1, 40},
      {"b", perf::Model{250.0, 0.04, 1.1, 0.5}, 1, 40},
      {"c", perf::Model{120.0, 0.02, 1.3, 0.2}, 1, 40}};
  if (comm) {
    for (auto& t : tasks) t.model.add(perf::make_comm_term(0.4, 0.5));
  }
  return tasks;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A cut no allocation satisfies: n_0 <= -1e9.
minlp::Cut poison_cut() {
  minlp::Cut c;
  c.coeffs = {{0, 1.0}};
  c.rhs = -1e9;
  c.source_constraint = 0;
  return c;
}

TEST(BudgetSolve, MaxMinRunsTheGreedyEvenWhenMinlpIsAsked) {
  const auto tasks = seam_tasks(false);
  const auto greedy = solve_budget(tasks, 48, Objective::MaxMin);
  const auto solved =
      budget_solve(tasks, 48, Objective::MaxMin, true, minlp::BnbOptions{});
  EXPECT_FALSE(solved.used_minlp);
  EXPECT_EQ(solved.solver.status, "max-min exact greedy");
  EXPECT_EQ(solved.solver.nodes, 0u);
  EXPECT_EQ(solved.allocation.str(), greedy.str());
  EXPECT_EQ(bits(solved.allocation.predicted_total),
            bits(greedy.predicted_total));
  EXPECT_FALSE(solved.seed_accepted);
}

TEST(BudgetSolve, MinlpPathMatchesTheDirectSearchAndFillsEveryCounter) {
  const auto tasks = seam_tasks(true);
  const auto bnb = minlp::solve(build_budget_minlp(tasks, 48, Objective::MinMax));
  const auto solved =
      budget_solve(tasks, 48, Objective::MinMax, true, minlp::BnbOptions{});
  ASSERT_TRUE(solved.used_minlp);
  EXPECT_EQ(solved.allocation.str(),
            allocation_from_minlp(tasks, bnb.x, Objective::MinMax).str());
  EXPECT_EQ(solved.solver.status, "optimal");
  EXPECT_EQ(solved.solver.nodes, bnb.nodes);
  EXPECT_EQ(solved.solver.lp_pivots, bnb.lp_pivots);
  EXPECT_EQ(solved.solver.refactorizations, bnb.lp_stats.refactorizations);
  EXPECT_EQ(solved.solver.phase1_pivots, bnb.lp_stats.phase1_pivots);
  EXPECT_EQ(solved.solver.bounds_tightened, bnb.bounds_tightened);
  EXPECT_GT(solved.solver.refactorizations, 0u);
  // The exported seed: the allocation, the optimum and the pool.
  ASSERT_EQ(solved.seed.nodes_by_task.size(), tasks.size());
  for (std::size_t f = 0; f < tasks.size(); ++f)
    EXPECT_EQ(solved.seed.nodes_by_task[f], solved.allocation.tasks[f].nodes);
  EXPECT_EQ(solved.seed.x, bnb.x);
  EXPECT_EQ(solved.seed.cuts.size(), bnb.pool_cuts.size());
  EXPECT_EQ(solved.seed.models.size(), tasks.size());
}

TEST(BudgetSolve, OutOfBoxSeedNodesAreClampedAndAccepted) {
  // Seed node counts far above the new per-task bounds (a shrunken budget
  // after a node failure) are clamped into the box before lifting.
  auto tasks = seam_tasks(false);
  for (auto& t : tasks) t.max_nodes = 10;
  SolveSeed seed;
  seed.nodes_by_task = {40, 1, 1};
  const auto cold =
      budget_solve(tasks, 30, Objective::MinMax, true, minlp::BnbOptions{});
  const auto warm = budget_solve(tasks, 30, Objective::MinMax, true,
                                 minlp::BnbOptions{}, &seed);
  EXPECT_TRUE(warm.seed_accepted);
  EXPECT_EQ(bits(warm.allocation.predicted_total),
            bits(cold.allocation.predicted_total));
}

TEST(BudgetSolve, CutsAreReusedOnlyForBitwiseEqualTaskModels) {
  const auto tasks = seam_tasks(true);
  SolveSeed seed;
  seed.cuts = {poison_cut()};
  for (const auto& t : tasks) seed.models.push_back(t.model);
  // Equal models: the (poisoned) pool is applied and the search fails.
  const auto poisoned = budget_solve(tasks, 48, Objective::MinMax, true,
                                     minlp::BnbOptions{}, &seed);
  EXPECT_TRUE(poisoned.allocation.tasks.empty());
  EXPECT_TRUE(poisoned.seed.nodes_by_task.empty());

  // One parameter one ulp away: the pool is refused.
  auto moved = tasks;
  moved[1].model = perf::Model{std::nextafter(250.0, 300.0), 0.04, 1.1, 0.5};
  moved[1].model.add(perf::make_comm_term(0.4, 0.5));
  const auto refused = budget_solve(moved, 48, Objective::MinMax, true,
                                    minlp::BnbOptions{}, &seed);
  EXPECT_EQ(refused.solver.status, "optimal");
  EXPECT_EQ(refused.allocation.tasks.size(), tasks.size());

  // Same fitted parameters, different pinned comm constant: refused too.
  auto other_link = seam_tasks(false);
  for (auto& t : other_link) t.model.add(perf::make_comm_term(0.4, 0.25));
  const auto refused_link = budget_solve(other_link, 48, Objective::MinMax,
                                         true, minlp::BnbOptions{}, &seed);
  EXPECT_EQ(refused_link.solver.status, "optimal");
}

TEST(BudgetSolve, CommModelCutsAreRefusedForAModelWithoutComm) {
  // The donor's cuts live in a split-variable layout (s_f columns past
  // the plain model's last column); reusing them would index columns the
  // plain model does not have. Its fitted parameters are identical.
  const auto donor = budget_solve(seam_tasks(true), 48, Objective::MinMax,
                                  true, minlp::BnbOptions{});
  ASSERT_FALSE(donor.seed.cuts.empty());
  const auto plain = seam_tasks(false);
  const auto warm = budget_solve(plain, 48, Objective::MinMax, true,
                                 minlp::BnbOptions{}, &donor.seed);
  SolveSeed stripped = donor.seed;
  stripped.cuts.clear();
  const auto no_cuts = budget_solve(plain, 48, Objective::MinMax, true,
                                    minlp::BnbOptions{}, &stripped);
  const auto cold =
      budget_solve(plain, 48, Objective::MinMax, true, minlp::BnbOptions{});
  EXPECT_EQ(warm.solver.nodes, no_cuts.solver.nodes);
  EXPECT_EQ(warm.solver.cuts, no_cuts.solver.cuts);
  EXPECT_EQ(warm.solver.lp_pivots, no_cuts.solver.lp_pivots);
  EXPECT_EQ(bits(warm.allocation.predicted_total),
            bits(cold.allocation.predicted_total));
}

TEST(BudgetSolve, PredictTermsSumsTermSecondsPerName) {
  const auto tasks = seam_tasks(true);
  const auto alloc = solve_budget(tasks, 48, Objective::MinMax);
  const auto terms = predict_terms(tasks, alloc, 3.0);
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0].term, "powerlaw");
  EXPECT_EQ(terms[1].term, "comm");
  double powerlaw = 0.0, comm = 0.0;
  for (std::size_t f = 0; f < tasks.size(); ++f) {
    const double n = static_cast<double>(alloc.tasks[f].nodes);
    powerlaw += 3.0 * tasks[f].model.term_seconds(0, n);
    comm += 3.0 * tasks[f].model.term_seconds(1, n);
  }
  EXPECT_EQ(bits(terms[0].predicted_seconds), bits(powerlaw));
  EXPECT_EQ(bits(terms[1].predicted_seconds), bits(comm));
}

}  // namespace
}  // namespace hslb
