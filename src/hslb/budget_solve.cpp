#include "hslb/budget_solve.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace hslb {

namespace {

/// True when `models` are the task cost models of `tasks`, term by term.
bool same_models(std::span<const BudgetTask> tasks,
                 const std::vector<perf::CostModel>& models) {
  if (models.size() != tasks.size()) return false;
  for (std::size_t f = 0; f < tasks.size(); ++f)
    if (tasks[f].model != models[f]) return false;
  return true;
}

/// Applies the seeding rule of the header comment to `opt`.
void seed_search(minlp::BnbOptions& opt, std::span<const BudgetTask> tasks,
                 Objective objective, const SolveSeed& seed) {
  if (!seed.cuts.empty() && same_models(tasks, seed.models))
    opt.seed_cuts = seed.cuts;
  if (seed.nodes_by_task.size() == tasks.size()) {
    std::vector<long long> warm = seed.nodes_by_task;
    for (std::size_t f = 0; f < tasks.size(); ++f)
      warm[f] = std::clamp(warm[f], tasks[f].min_nodes, tasks[f].max_nodes);
    opt.seed_incumbent = minlp_warm_start(tasks, warm, objective);
    opt.seed_points.push_back(opt.seed_incumbent);
  }
  if (!seed.x.empty()) opt.seed_points.push_back(seed.x);
}

}  // namespace

BudgetSolve budget_solve(std::span<const BudgetTask> tasks, long long budget,
                         Objective objective, bool use_minlp,
                         const minlp::BnbOptions& bnb, const SolveSeed* seed) {
  BudgetSolve out;
  if (use_minlp && objective != Objective::MaxMin) {
    const auto model = build_budget_minlp(tasks, budget, objective);
    minlp::BnbOptions opt = bnb;
    if (seed != nullptr) seed_search(opt, tasks, objective, *seed);
    auto res = minlp::solve(model, opt);
    out.used_minlp = true;
    out.solver = solver_stats(res);
    out.seed_accepted = res.seed_accepted;
    if (!res.has_solution) return out;
    out.allocation = allocation_from_minlp(tasks, res.x, objective);
    out.seed.x = std::move(res.x);
    out.seed.cuts = std::move(res.pool_cuts);
    for (const auto& t : tasks) out.seed.models.push_back(t.model);
  } else {
    out.allocation = solve_budget(tasks, budget, objective);
    out.solver.status = to_string(objective) + " exact greedy";
  }
  for (const auto& t : out.allocation.tasks)
    out.seed.nodes_by_task.push_back(t.nodes);
  return out;
}

ResolveOutcome budget_resolve(std::span<const BudgetTask> tasks,
                              long long budget, Objective objective,
                              bool use_minlp, const minlp::BnbOptions& bnb,
                              const Allocation& incumbent,
                              double sync_overhead, SolveSeed& seed) {
  std::vector<long long> inc_nodes;
  inc_nodes.reserve(tasks.size());
  for (const auto& t : tasks)
    inc_nodes.push_back(incumbent.find(t.name).nodes);
  seed.nodes_by_task = inc_nodes;
  BudgetSolve solved =
      budget_solve(tasks, budget, objective, use_minlp, bnb, &seed);
  seed = std::move(solved.seed);

  ResolveOutcome rr;
  SolveOutcome& out = rr.solution;
  out.allocation = std::move(solved.allocation);
  out.solver = std::move(solved.solver);
  if (!solved.used_minlp) out.solver.status += " (warm)";
  out.predicted_total =
      evaluate_objective(tasks, seed.nodes_by_task, objective) +
      sync_overhead;
  rr.incumbent_predicted =
      evaluate_objective(tasks, inc_nodes, objective) + sync_overhead;
  return rr;
}

SolverStats solver_stats(const minlp::BnbResult& bnb) {
  SolverStats out;
  out.status = minlp::to_string(bnb.status);
  out.nodes = bnb.nodes;
  out.cuts = bnb.cuts;
  out.gap = bnb.gap;
  out.rel_gap = bnb.rel_gap;
  out.seconds = bnb.seconds;
  out.threads = bnb.threads;
  out.lp_solves = bnb.lp_solves;
  out.lp_pivots = bnb.lp_pivots;
  out.warm_solves = bnb.warm_solves;
  out.waves = bnb.waves;
  out.eta_nnz = bnb.lp_stats.eta_nnz;
  out.eta_dense_nnz = bnb.lp_stats.eta_dense_nnz;
  out.eta_compression = bnb.lp_stats.eta_compression();
  out.flop_reduction = bnb.lp_stats.flop_reduction();
  out.refactorizations = bnb.lp_stats.refactorizations;
  out.basis_nnz = bnb.lp_stats.basis_nnz;
  out.lu_fill = bnb.lp_stats.lu_fill;
  out.ft_updates = bnb.lp_stats.ft_updates;
  out.ft_fill_nnz = bnb.lp_stats.ft_fill_nnz;
  out.refactor_interval_hits = bnb.lp_stats.refactor_interval_hits;
  out.refactor_fill_hits = bnb.lp_stats.refactor_fill_hits;
  out.refactor_drift_hits = bnb.lp_stats.refactor_drift_hits;
  out.dual_pivots = bnb.lp_stats.dual_pivots;
  out.phase1_pivots = bnb.lp_stats.phase1_pivots;
  out.dual_phase1_avoided = bnb.lp_stats.dual_phase1_avoided;
  out.presolve_rows_removed = bnb.lp_stats.presolve_rows_removed;
  out.presolve_cols_removed = bnb.lp_stats.presolve_cols_removed;
  out.bounds_tightened = bnb.bounds_tightened;
  out.nodes_propagated_infeasible = bnb.nodes_propagated_infeasible;
  out.cuts_retired = bnb.cuts_retired;
  out.cuts_reactivated = bnb.cuts_reactivated;
  return out;
}

std::vector<TermReport> predict_terms(std::span<const BudgetTask> tasks,
                                      const Allocation& allocation,
                                      double repeats) {
  std::vector<TermReport> out;
  for (std::size_t f = 0; f < allocation.tasks.size(); ++f) {
    const double n = static_cast<double>(allocation.tasks[f].nodes);
    const auto& m = tasks[f].model;
    for (std::size_t i = 0; i < m.num_terms(); ++i) {
      const std::string& tn = m.term(i).name();
      auto it = std::find_if(out.begin(), out.end(), [&](const TermReport& r) {
        return r.term == tn;
      });
      if (it == out.end()) {
        out.push_back({tn, 0.0, 0.0});
        it = std::prev(out.end());
      }
      it->predicted_seconds += repeats * m.term_seconds(i, n);
    }
  }
  return out;
}

}  // namespace hslb
