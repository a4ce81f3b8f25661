// Bring-your-own-application example: plugging a custom coupled code into
// the HSLB pipeline engine.
//
//   $ ./build/examples/custom_application
//
// §V of the paper: "It is our intention to develop a 'black box' from HSLB
// which would allow anyone ... to run [their code] efficiently on
// supercomputers or clusters." That black box is hslb::Pipeline: implement
// the hslb::Application interface (benchmark plan, probe, problem builder,
// executor) and the engine runs Gather -> Fit -> Solve -> Execute for you,
// with parallel probing/fitting and a per-stage instrumentation report.
//
// The application here is a made-up three-stage seismic imaging pipeline:
//
//   wavefield  - heavy forward solver        (concurrent with the others)
//   migration  - medium imaging kernel        \  these two share a node
//   qc         - light quality-control pass   /  block, running in sequence
//
// i.e. total = max( T_wave, T_mig + T_qc ) with n_wave + max(n_mig, n_qc)
// <= N — a layout the budgeted greedy solvers cannot express, so the Solve
// hook builds a custom MINLP (minlp::Model + minlp::solve).
#include <array>
#include <cmath>
#include <cstdio>

#include "common/rng.hpp"
#include "hslb/budget_solve.hpp"
#include "hslb/pipeline.hpp"
#include "minlp/bnb.hpp"
#include "sim/noise.hpp"
#include "sim/runtime.hpp"

namespace {

using namespace hslb;

constexpr long long kNodes = 256;
constexpr std::uint64_t kSeed = 2024;

class SeismicImaging final : public Application {
 public:
  std::string name() const override { return "seismic-imaging"; }

  // --- step 1: every stage probed at the same few node counts -------------
  GatherPlan gather_plan() override {
    GatherPlan plan;
    const auto counts = geometric_node_counts(2, kNodes, 5);
    for (std::size_t t = 0; t < kTasks.size(); ++t)
      plan.emplace_back(kTasks[t], counts);
    return plan;
  }

  // In reality: your job script + timers. Noise is derived from the probe
  // coordinates so concurrent probes stay deterministic.
  double probe(const std::string& task, long long n,
               std::uint64_t rep) override {
    const std::size_t t = task_index(task);
    sim::NoiseModel noise(
        0.03, derive_seed(derive_seed(kSeed, t),
                          static_cast<std::uint64_t>(n) * 4096 + rep));
    return noise.perturb(truth_[t].eval(static_cast<double>(n)));
  }

  // --- step 3: express your layout as a MINLP ------------------------------
  SolveOutcome solve(const std::vector<std::pair<std::string, perf::FitResult>>&
                         fits) override {
    for (std::size_t t = 0; t < kTasks.size(); ++t) {
      models_[t] = fits[t].second.model;
      std::printf("fit %-10s %s  (R^2 %.4f)\n", fits[t].first.c_str(),
                  models_[t].str().c_str(), fits[t].second.r2);
    }

    // Variables: node counts (integer), per-stage times (epigraph), total T.
    minlp::Model m;
    double t_max = 0.0;
    for (const auto& pm : models_) t_max += pm.eval(2.0);
    std::array<std::size_t, 3> n_var{}, t_var{};
    for (std::size_t i = 0; i < 3; ++i) {
      n_var[i] = m.add_integer(2.0, static_cast<double>(kNodes),
                               "n_" + kTasks[i]);
      t_var[i] = m.add_continuous(0.0, t_max, "t_" + kTasks[i]);
      const auto pm = models_[i];
      const auto nv = n_var[i], tv = t_var[i];
      minlp::NonlinearConstraint con;
      con.name = "T_" + kTasks[i];
      con.vars = {nv, tv};
      con.value = [nv, tv, pm](std::span<const double> x) {
        return pm.eval(x[nv]) - x[tv];
      };
      con.gradient = [nv, tv, pm](std::span<const double> x) {
        return std::vector<minlp::GradEntry>{{nv, pm.deriv_n(x[nv])},
                                             {tv, -1.0}};
      };
      m.add_nonlinear(std::move(con));
    }
    const auto T = m.add_continuous(0.0, t_max, "T");
    m.set_objective(T, 1.0);
    // T >= t_wave;  T >= t_mig + t_qc (they run sequentially).
    m.add_linear({{T, 1.0}, {t_var[0], -1.0}}, 0.0, lp::kInf);
    m.add_linear({{T, 1.0}, {t_var[1], -1.0}, {t_var[2], -1.0}}, 0.0, lp::kInf);
    // wavefield block + imaging block <= machine; mig and qc share a block.
    m.add_linear({{n_var[0], 1.0}, {n_var[1], 1.0}}, 0.0,
                 static_cast<double>(kNodes));
    m.add_linear({{n_var[2], 1.0}, {n_var[1], -1.0}}, -lp::kInf, 0.0);

    const auto sol = minlp::solve(m);
    SolveOutcome out;
    out.predicted_total = sol.objective;
    out.solver = solver_stats(sol);
    for (std::size_t i = 0; i < 3; ++i) {
      const auto nodes = std::llround(sol.x[n_var[i]]);
      out.allocation.tasks.push_back(
          {kTasks[i], nodes, models_[i].eval(static_cast<double>(nodes))});
    }
    out.allocation.predicted_total = sol.objective;
    return out;
  }

  // --- step 4: execute on the runtime (here: simulated) and visualize ------
  // Durations are the ground-truth models; execution-time variability comes
  // from the runtime's keyed Perturbation rather than ad-hoc noise draws,
  // so the trace the pipeline reports is the schedule that actually ran.
  double execute(const SolveOutcome& solution) override {
    std::array<long long, 3> alloc{};
    for (std::size_t i = 0; i < 3; ++i)
      alloc[i] = solution.allocation.find(kTasks[i]).nodes;

    sim::Runtime rt(machine());
    rt.add_task("wavefield", truth_[0].eval(static_cast<double>(alloc[0])),
                {0, static_cast<std::size_t>(alloc[0])}, {}, "imaging");
    const auto mig = rt.add_task(
        "migration", truth_[1].eval(static_cast<double>(alloc[1])),
        {static_cast<std::size_t>(alloc[0]), static_cast<std::size_t>(alloc[1])},
        {}, "imaging");
    rt.add_task("qc", truth_[2].eval(static_cast<double>(alloc[2])),
                {static_cast<std::size_t>(alloc[0]),
                 static_cast<std::size_t>(alloc[2])},
                {mig}, "imaging");

    sim::Perturbation perturb;
    perturb.noise_cv = 0.03;
    perturb.seed = derive_seed(kSeed, 1000);
    run_ = rt.run(perturb);
    std::printf("\nexecuted schedule:\n%s", run_.trace.gantt().c_str());
    return run_.makespan;
  }

  // Exposing the machine and trace lets the engine's report print runtime
  // occupancy/imbalance next to the Gather/Fit/Solve instrumentation.
  sim::Machine machine() const override {
    return sim::Machine{"cluster", static_cast<std::size_t>(kNodes), 1};
  }
  const sim::Trace* execution_trace() const override {
    return run_.trace.events.empty() ? nullptr : &run_.trace;
  }
  bool execution_completed() const override { return run_.completed; }

 private:
  sim::RunResult run_;
  static std::size_t task_index(const std::string& task) {
    for (std::size_t t = 0; t < kTasks.size(); ++t)
      if (kTasks[t] == task) return t;
    return 0;
  }

  static const std::array<std::string, 3> kTasks;
  // The "application" ground truth the probes observe through noise.
  std::array<perf::Model, 3> truth_{perf::Model{9000.0, 2e-4, 1.2, 8.0},
                                    perf::Model{2500.0, 0.0, 1.0, 5.0},
                                    perf::Model{300.0, 0.0, 1.0, 2.0}};
  std::array<perf::Model, 3> models_{};
};

const std::array<std::string, 3> SeismicImaging::kTasks = {
    "wavefield", "migration", "qc"};

}  // namespace

int main() {
  SeismicImaging app;
  hslb::PipelineOptions options;
  options.threads = 0;  // hardware concurrency
  const auto run = hslb::Pipeline(options).run(app);

  std::printf("\n");
  for (const auto& t : run.solution.allocation.tasks) {
    std::printf("  %-10s %4lld nodes  predicted %.2f s\n", t.task.c_str(),
                t.nodes, t.predicted_seconds);
  }
  std::printf("\n%s", run.report.str().c_str());
  std::printf("actual total %.2f s (prediction error %+.1f%%)\n",
              run.actual_total, 100.0 * run.report.prediction_error());
  return 0;
}
