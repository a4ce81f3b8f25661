#include "hslb/waveapp.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "perf/terms.hpp"
#include "sim/noise.hpp"

namespace hslb {

WaveApplication::WaveApplication(WaveWorkload workload, long long nodes,
                                 WaveOptions options)
    : workload_(std::move(workload)), nodes_(nodes), options_(std::move(options)) {
  const auto tasks = static_cast<long long>(workload_.tasks.size());
  HSLB_EXPECTS(tasks >= 1);
  HSLB_EXPECTS(nodes_ >= tasks);
  HSLB_EXPECTS(workload_.waves >= 1);
  HSLB_EXPECTS(options_.fit_points >= 2);
  // Same probe ceiling rationale as FMO: a task can never get more than
  // budget - (T-1) nodes, and probing past several fair shares is wasted.
  const long long fair = std::max<long long>(1, nodes_ / tasks);
  hi_ = std::max<long long>(8, std::min(nodes_ - tasks + 1, 8 * fair));
  counts_ = geometric_node_counts(
      1, hi_, static_cast<std::size_t>(options_.fit_points));
  if (options_.machine.nodes == 0) {
    mach_ = sim::Machine{"cluster", static_cast<std::size_t>(nodes_), 1};
  } else {
    HSLB_EXPECTS(options_.machine.nodes >= static_cast<std::size_t>(nodes_));
    mach_ = options_.machine;
  }
  perturb_.noise_cv = options_.noise_cv;
  perturb_.seed = options_.seed;
  if (options_.straggler_cv > 0.0)
    perturb_.node_slowdown = sim::Perturbation::stragglers(
        mach_.nodes, options_.straggler_cv, options_.seed);
  perturb_.fail_node = options_.fail_node;
  perturb_.fail_time = options_.fail_time;
  perturb_.fail_downtime = options_.fail_downtime;
  for (std::size_t t = 0; t < workload_.tasks.size(); ++t)
    index_of_[workload_.tasks[t].name] = t;
  HSLB_EXPECTS(index_of_.size() == workload_.tasks.size());
}

std::string WaveApplication::name() const {
  return "wave/" + workload_.name;
}

GatherPlan WaveApplication::gather_plan() {
  GatherPlan plan;
  plan.reserve(workload_.tasks.size());
  for (const auto& t : workload_.tasks) plan.emplace_back(t.name, counts_);
  return plan;
}

double WaveApplication::noisy(double true_seconds, std::size_t stream,
                              long long n, std::uint64_t rep) const {
  const std::uint64_t seed =
      derive_seed(derive_seed(options_.bench_seed, stream),
                  static_cast<std::uint64_t>(n) * 4096 + rep);
  sim::NoiseModel noise(options_.bench_noise_cv, seed);
  return noise.perturb(true_seconds);
}

double WaveApplication::probe(const std::string& task, long long n,
                              std::uint64_t rep) {
  const auto it = index_of_.find(task);
  HSLB_ASSERT(it != index_of_.end());
  return noisy(workload_.tasks[it->second].truth.eval(static_cast<double>(n)),
               it->second, n, rep);
}

std::vector<BudgetTask> WaveApplication::budget_tasks(
    const std::vector<std::pair<std::string, perf::FitResult>>& fits,
    long long max_nodes) const {
  HSLB_EXPECTS(fits.size() == workload_.tasks.size());
  std::vector<BudgetTask> tasks;
  tasks.reserve(fits.size());
  for (const auto& [name, fit] : fits)
    tasks.push_back(BudgetTask{name, fit.model, 1, max_nodes});
  // Pinned machine term: each task's working set against node memory (no
  // halo traffic in the wave model, so no comm term). A no-op on machines
  // that do not model memory.
  if (mach_.models_memory()) {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (workload_.tasks[t].memory_gb > 0.0)
        tasks[t].model.add(perf::make_memory_term(workload_.tasks[t].memory_gb,
                                                  mach_.memory_gb_per_node,
                                                  mach_.page_s_per_gb));
      // The memory knapsack can force a wider span than the probe ceiling;
      // feasibility wins over staying inside the interpolated range.
      tasks[t].max_nodes =
          std::max(tasks[t].max_nodes, tasks[t].model.min_feasible_nodes());
    }
  }
  return tasks;
}

SolveOutcome WaveApplication::solve(
    const std::vector<std::pair<std::string, perf::FitResult>>& fits) {
  const auto tasks = budget_tasks(fits, hi_);
  BudgetSolve solved = budget_solve(tasks, nodes_, options_.objective,
                                    options_.solve_with_minlp, options_.bnb);
  SolveOutcome out;
  out.allocation = std::move(solved.allocation);
  out.solver = std::move(solved.solver);
  seed_ = std::move(solved.seed);
  double wave = 0.0;
  for (const auto& t : out.allocation.tasks)
    wave = std::max(wave, t.predicted_seconds);
  out.predicted_total = static_cast<double>(workload_.waves) *
                        (wave + workload_.sync_overhead);
  // Term-wise predicted task-seconds over all waves.
  out.term_predictions = predict_terms(
      tasks, out.allocation, static_cast<double>(workload_.waves));
  return out;
}

long long WaveApplication::budget() const {
  return std::min<long long>(nodes_, static_cast<long long>(seg_count_));
}

sim::NodeSet WaveApplication::barrier_set() const {
  if (failed_) return {seg_first_, seg_count_};
  return {0, mach_.nodes};
}

void WaveApplication::reset_run_state() {
  seg_first_ = 0;
  seg_count_ = mach_.nodes;
  failed_ = false;
  wave_ = 0;
  done_ = false;
  pending_.assign(workload_.tasks.size(), 1);
  clock_ = 0.0;
  completed_ = true;
  trace_ = {};
  trace_.machine = mach_.name;
  trace_.nodes = mach_.nodes;
  trace_.cores_per_node = mach_.cores_per_node;
  task_busy_.assign(workload_.tasks.size(), 0.0);
  task_seconds_ = 0.0;
  comm_seconds_ = 0.0;
  page_seconds_ = 0.0;
  restarts_ = 0;
  hslb_total_ = 0.0;
  dlb_ran_ = false;
  installed_ = false;
}

void WaveApplication::install(const Allocation& allocation) {
  HSLB_EXPECTS(allocation.tasks.size() == workload_.tasks.size());
  HSLB_EXPECTS(allocation.total_nodes() <= budget());
  alloc_nodes_.resize(workload_.tasks.size());
  blocks_.resize(workload_.tasks.size());
  std::size_t offset = seg_first_;
  for (std::size_t t = 0; t < workload_.tasks.size(); ++t) {
    const auto& entry = allocation.find(workload_.tasks[t].name);
    HSLB_EXPECTS(entry.nodes >= 1);
    alloc_nodes_[t] = entry.nodes;
    blocks_[t] = {offset, static_cast<std::size_t>(entry.nodes)};
    offset += static_cast<std::size_t>(entry.nodes);
  }
  installed_ = true;
}

void WaveApplication::begin_epochs(const SolveOutcome& solution) {
  reset_run_state();
  install(solution.allocation);
}

EpochOutcome WaveApplication::execute_epoch(std::size_t epoch) {
  (void)epoch;
  HSLB_EXPECTS(installed_);
  EpochOutcome r;
  if (done_) {
    r.done = true;
    return r;
  }
  const double epoch_start = clock_;
  sim::Runtime rt(mach_);
  const std::string phase = "wave" + std::to_string(wave_);
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> ids(workload_.tasks.size(), kNone);
  std::vector<std::size_t> wave_ids;
  for (std::size_t t = 0; t < workload_.tasks.size(); ++t) {
    if (!pending_[t]) continue;
    ids[t] = rt.add_task(
        workload_.tasks[t].name,
        workload_.tasks[t].truth.eval(static_cast<double>(alloc_nodes_[t])),
        blocks_[t], {}, phase, false, {0.0, workload_.tasks[t].memory_gb});
    wave_ids.push_back(ids[t]);
  }
  const std::size_t sync_id =
      rt.add_task("sync", workload_.sync_overhead, barrier_set(),
                  std::move(wave_ids), phase, true);

  sim::EpochOptions eo;
  eo.initial_node_free.assign(mach_.nodes, clock_);
  eo.stop_on_failure = true;
  sim::EpochState state;
  const auto rr = rt.run(perturb_, eo, &state);
  trace_.append(rr.trace);
  restarts_ += rr.restarts;
  comm_seconds_ += rr.comm_seconds;
  page_seconds_ += rr.page_seconds;

  std::vector<double> durations;
  for (std::size_t t = 0; t < workload_.tasks.size(); ++t) {
    if (ids[t] == kNone || !state.ran[ids[t]]) continue;
    const double secs = rr.tasks[ids[t]].end - rr.tasks[ids[t]].start;
    task_busy_[t] += secs;
    task_seconds_ += secs;
    durations.push_back(secs);
    pending_[t] = 0;
  }
  for (const auto& [id, seconds] : state.observed) {
    for (std::size_t t = 0; t < workload_.tasks.size(); ++t) {
      if (ids[t] != id) continue;
      r.observations.push_back({workload_.tasks[t].name,
                                static_cast<double>(alloc_nodes_[t]), seconds,
                                0});
      break;
    }
  }

  if (rr.failure_paused) {
    // Shrink the world to the larger contiguous half either side of the
    // failed node (ties keep the low half) and advance the clock past all
    // in-flight work, exactly like fmo::EpochRunner.
    r.failure_detected = true;
    failed_ = true;
    const auto fn = static_cast<std::size_t>(options_.fail_node);
    const std::size_t end = seg_first_ + seg_count_;
    HSLB_ASSERT(fn >= seg_first_ && fn < end);
    const std::size_t left = fn - seg_first_;
    const std::size_t right = end - fn - 1;
    if (left >= right) {
      seg_count_ = left;
    } else {
      seg_first_ = fn + 1;
      seg_count_ = right;
    }
    for (std::size_t n = seg_first_; n < seg_first_ + seg_count_; ++n)
      clock_ = std::max(clock_, state.node_free[n]);
    if (budget() < static_cast<long long>(workload_.tasks.size())) {
      // Survivors cannot host one node per task: unrecoverable.
      done_ = true;
      completed_ = false;
      r.done = true;
    }
    r.epochs_remaining = static_cast<double>(workload_.waves - wave_);
    r.epoch_seconds = clock_ - epoch_start;
    return r;
  }

  clock_ = rr.tasks[sync_id].end;
  ++wave_;
  pending_.assign(workload_.tasks.size(), 1);
  if (wave_ >= workload_.waves) done_ = true;
  r.done = done_;
  r.imbalance = durations.empty() ? 0.0 : stats::imbalance(durations);
  r.epochs_remaining = static_cast<double>(workload_.waves - wave_);
  r.epoch_seconds = clock_ - epoch_start;
  return r;
}

ResolveOutcome WaveApplication::resolve(
    const std::vector<std::pair<std::string, perf::FitResult>>& fits,
    const SolveOutcome& incumbent) {
  const long long nodes = budget();
  auto tasks = budget_tasks(fits, std::min(hi_, nodes));
  return budget_resolve(tasks, nodes, options_.objective,
                        options_.solve_with_minlp, options_.bnb,
                        incumbent.allocation, workload_.sync_overhead, seed_);
}

double WaveApplication::migration_volume(const Allocation& next) const {
  double volume = 0.0;
  std::size_t offset = seg_first_;
  for (std::size_t t = 0; t < workload_.tasks.size(); ++t) {
    const auto& entry = next.find(workload_.tasks[t].name);
    const sim::NodeSet block{offset, static_cast<std::size_t>(entry.nodes)};
    offset += block.count;
    if (!installed_ || block.first != blocks_[t].first ||
        block.count != blocks_[t].count)
      volume += workload_.tasks[t].memory_gb;
  }
  return volume;
}

double WaveApplication::migration_cost(const SolveOutcome& from,
                                       const SolveOutcome& to) const {
  (void)from;  // compared against the installed layout
  return mach_.migration_seconds(migration_volume(to.allocation));
}

double WaveApplication::apply_allocation(const SolveOutcome& solution) {
  const double stall =
      mach_.migration_seconds(migration_volume(solution.allocation));
  if (stall > 0.0) {
    trace_.events.push_back({"migrate", "rebalance", seg_first_, seg_count_,
                             clock_, clock_ + stall, false});
    clock_ += stall;
  }
  install(solution.allocation);
  return stall;
}

double WaveApplication::finish_epochs() {
  hslb_total_ = clock_;
  return hslb_total_;
}

double WaveApplication::execute(const SolveOutcome& solution) {
  // Execute *is* the epoch loop, so an untriggered adaptive run is
  // bit-identical by construction. With no controller to reallocate, a
  // permanent-failure pause ends the run incomplete (the static-schedule
  // brittleness the robustness benches measure).
  begin_epochs(solution);
  for (std::size_t e = 0; !done_; ++e) {
    const EpochOutcome eo = execute_epoch(e);
    if (eo.done) break;
    if (eo.failure_detected) {
      done_ = true;
      completed_ = false;
      break;
    }
  }
  return finish_epochs();
}

double WaveApplication::dlb_total_seconds() {
  if (!dlb_ran_) run_dlb_baseline();
  return dlb_total_;
}

void WaveApplication::run_dlb_baseline() {
  // Dynamic baseline on the same workload, machine, and noise draws: each
  // wave is a shared queue drained largest-first by uniform groups, waves
  // chained by the sync overhead. Phase/task names match the HSLB run, so
  // the keyed noise draws are shared between the two schedules.
  dlb_ran_ = true;
  const std::size_t G = options_.dlb_groups == 0 ? workload_.tasks.size()
                                                 : options_.dlb_groups;
  std::vector<sim::NodeSet> groups;
  groups.reserve(G);
  const std::size_t base = mach_.nodes / G;
  const std::size_t rem = mach_.nodes % G;
  std::size_t offset = 0;
  for (std::size_t g = 0; g < G; ++g) {
    const std::size_t size = base + (g < rem ? 1 : 0);
    groups.push_back({offset, size});
    offset += size;
  }

  std::vector<std::size_t> order(workload_.tasks.size());
  for (std::size_t t = 0; t < order.size(); ++t) order[t] = t;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return workload_.tasks[a].truth.eval(1.0) >
           workload_.tasks[b].truth.eval(1.0);
  });

  double start = 0.0;
  bool completed = true;
  for (long long w = 0; w < workload_.waves && completed; ++w) {
    std::vector<sim::Runtime::QueueTask> queue;
    queue.reserve(order.size());
    for (std::size_t t : order) {
      const perf::Model& truth = workload_.tasks[t].truth;
      queue.push_back({workload_.tasks[t].name,
                       [truth](long long n) {
                         return truth.eval(static_cast<double>(n));
                       },
                       "wave" + std::to_string(w), 0.0,
                       workload_.tasks[t].memory_gb});
    }
    const auto res =
        sim::Runtime::run_queue(mach_, groups, queue, perturb_, start);
    completed = res.completed;
    start = res.makespan + workload_.sync_overhead;
  }
  dlb_total_ = completed ? start : std::numeric_limits<double>::infinity();
}

std::vector<std::pair<std::string, double>>
WaveApplication::execution_term_seconds() const {
  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("powerlaw",
                   task_seconds_ - comm_seconds_ - page_seconds_);
  if (mach_.models_communication()) out.emplace_back("comm", comm_seconds_);
  if (mach_.models_memory()) out.emplace_back("memory", page_seconds_);
  return out;
}

}  // namespace hslb
