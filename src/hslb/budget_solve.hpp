// The Solve step of every budget substrate (§III-E): the budgeted
// node-allocation problem of hslb/budget.hpp, solved by the exact greedy or
// by the MINLP branch and bound, optionally warm-seeded from what an
// earlier solve learned. FMO, the wave substrates (FMM, AMReX) and the
// allocation service all solve through budget_solve(), so the seeding rule
// and the solver counters are the same everywhere.
//
// Seeding rule (a seed can prune the tree, never change the optimum):
//   1. the seed's cut pool, only when the seed's task cost models equal the
//      new ones term by term (comm and memory terms included) — OA cuts are
//      valid verbatim only for the same nonlinear constraints over the same
//      variable layout;
//   2. the seed's node counts, clamped into the new per-task bounds and
//      lifted by minlp_warm_start, as the candidate incumbent and the first
//      re-linearization point (the B&B audits the incumbent);
//   3. the seed's MINLP optimum as a second re-linearization point (valid
//      by convexity even when the models were refitted).
#pragma once

#include <span>
#include <vector>

#include "hslb/budget.hpp"
#include "hslb/pipeline.hpp"
#include "minlp/bnb.hpp"

namespace hslb {

/// What one solve learned, for seeding a later warm solve: the closed-loop
/// re-solves between epochs and the allocation service's cross-instance
/// warm starts.
struct SolveSeed {
  /// Node counts, one per task in task order (empty = no incumbent seed).
  std::vector<long long> nodes_by_task;
  /// MINLP optimum in its variable space (empty on the greedy path).
  std::vector<double> x;
  /// Final cut pool of the search.
  std::vector<minlp::Cut> cuts;
  /// The task cost models `cuts` were generated against.
  std::vector<perf::CostModel> models;
};

struct BudgetSolve {
  /// Empty when the branch and bound found no solution.
  Allocation allocation;
  SolverStats solver;
  /// True when the MINLP branch and bound ran (false: the exact greedy).
  bool used_minlp = false;
  /// True when the seed's incumbent passed the B&B feasibility audit and
  /// the search started warm.
  bool seed_accepted = false;
  /// Seed for a later warm solve (empty when there is no allocation).
  SolveSeed seed;
};

/// Solves the budget problem over `tasks`. `use_minlp` routes min-max and
/// min-sum through build_budget_minlp + minlp::solve with `bnb` (and
/// `seed`, when given); max-min has no MINLP encoding and, like
/// `use_minlp == false`, runs the exact greedy with status
/// "<objective> exact greedy".
BudgetSolve budget_solve(std::span<const BudgetTask> tasks, long long budget,
                         Objective objective, bool use_minlp,
                         const minlp::BnbOptions& bnb,
                         const SolveSeed* seed = nullptr);

/// The closed-loop re-solve of FMO and the wave engine: budget_solve
/// seeded from `seed` (what the last solve learned) with the running
/// allocation `incumbent` as its node counts, which then leaves in `seed`
/// what this solve learned. A greedy status gains " (warm)". Both
/// predictions are one epoch: the objective plus `sync_overhead`.
ResolveOutcome budget_resolve(std::span<const BudgetTask> tasks,
                              long long budget, Objective objective,
                              bool use_minlp, const minlp::BnbOptions& bnb,
                              const Allocation& incumbent,
                              double sync_overhead, SolveSeed& seed);

/// The report row of a branch-and-bound run.
SolverStats solver_stats(const minlp::BnbResult& bnb);

/// Term-wise predicted task-seconds of `allocation` (entries in task
/// order), each task's term seconds times `repeats`, summed per term name
/// in first-seen order.
std::vector<TermReport> predict_terms(std::span<const BudgetTask> tasks,
                                      const Allocation& allocation,
                                      double repeats);

}  // namespace hslb
