// The substrate registry seam: catalogue semantics, and — the load-bearing
// guarantee of the refactor — registry-built applications reproduce the
// classic run_pipeline drivers byte-identically (reports, traces, B&B node
// counts), including on a shared caller-owned ThreadPool with interleaved
// and concurrent runs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

#include "cesm/pipeline.hpp"
#include "common/parallel.hpp"
#include "fmo/driver.hpp"
#include "fmo/scenario.hpp"
#include "hslb/pipeline.hpp"
#include "hslb/registry.hpp"
#include "substrates/registry_builtins.hpp"

namespace hslb {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { substrates::register_builtin_substrates(); }
};

TEST_F(RegistryTest, RegistrationIsIdempotent) {
  substrates::register_builtin_substrates();
  substrates::register_builtin_substrates();
  const auto all = SubstrateRegistry::instance().list();
  ASSERT_EQ(all.size(), 4u);
  // list() sorts by name.
  EXPECT_EQ(all[0].name, "amrex");
  EXPECT_EQ(all[1].name, "cesm");
  EXPECT_EQ(all[2].name, "fmm");
  EXPECT_EQ(all[3].name, "fmo");
  for (const auto& info : all) {
    EXPECT_FALSE(info.description.empty());
    EXPECT_FALSE(info.variants.empty());
    EXPECT_TRUE(SubstrateRegistry::instance().contains(info.name));
    EXPECT_NE(SubstrateRegistry::instance().find(info.name), nullptr);
  }
}

TEST_F(RegistryTest, UnknownSubstrateThrowsListingNames) {
  ScenarioSpec spec;
  spec.substrate = "gromacs";
  try {
    SubstrateRegistry::instance().make(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fmo"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("amrex"), std::string::npos);
  }
  EXPECT_FALSE(SubstrateRegistry::instance().contains("gromacs"));
  EXPECT_EQ(SubstrateRegistry::instance().find("gromacs"), nullptr);
}

TEST_F(RegistryTest, UnknownVariantThrows) {
  ScenarioSpec spec;
  spec.substrate = "fmo";
  spec.variant = "protein-ligand";
  EXPECT_THROW(SubstrateRegistry::instance().make(spec),
               std::invalid_argument);
}

/// The exec Metrics struct and its legacy scalar copies must be the same
/// values — the parity contract that lets old consumers read either.
void expect_metrics_copies_equal(const PipelineReport& r) {
  EXPECT_EQ(r.exec.makespan, r.exec_makespan);
  EXPECT_EQ(r.exec.busy_unit_seconds, r.exec_busy_node_seconds);
  EXPECT_EQ(r.exec.efficiency, r.exec_efficiency);
  EXPECT_EQ(r.exec.imbalance, r.exec_imbalance);
  EXPECT_EQ(r.exec.percent_imbalance, r.exec_percent_imbalance);
}

/// Byte-identical report/trace comparison between a registry-built run and
/// a classic driver run.
void expect_reports_identical(const PipelineReport& a,
                              const PipelineReport& b) {
  EXPECT_EQ(a.application, b.application);
  EXPECT_EQ(a.predicted_total, b.predicted_total);
  EXPECT_EQ(a.actual_total, b.actual_total);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.exec_makespan, b.exec_makespan);
  EXPECT_EQ(a.exec_busy_node_seconds, b.exec_busy_node_seconds);
  EXPECT_EQ(a.exec_efficiency, b.exec_efficiency);
  EXPECT_EQ(a.exec_imbalance, b.exec_imbalance);
  EXPECT_EQ(a.exec_percent_imbalance, b.exec_percent_imbalance);
  EXPECT_EQ(a.exec_events, b.exec_events);
  EXPECT_EQ(a.solver.nodes, b.solver.nodes);
  EXPECT_EQ(a.solver.cuts, b.solver.cuts);
  EXPECT_EQ(a.solver.lp_solves, b.solver.lp_solves);
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_EQ(a.fits[i].task, b.fits[i].task);
    EXPECT_EQ(a.fits[i].r2, b.fits[i].r2);
  }
  expect_metrics_copies_equal(a);
  expect_metrics_copies_equal(b);
}

fmo::PipelineOptions small_fmo_options() {
  fmo::PipelineOptions opt;
  opt.threads = 1;
  return opt;
}

PipelineOptions single_thread() {
  PipelineOptions opt;
  opt.threads = 1;
  return opt;
}

TEST_F(RegistryTest, FmoRegistryAppMatchesRunPipeline) {
  const auto sys = fmo::make_system("water", 8);
  const auto opt = small_fmo_options();
  const auto classic = fmo::run_pipeline(sys, fmo::CostModel{}, 48, opt);

  ScenarioSpec spec;
  spec.substrate = "fmo";
  spec.variant = "water";
  spec.tasks = 8;
  spec.nodes = 48;
  const auto app = SubstrateRegistry::instance().make(spec);
  const auto run = Pipeline(single_thread()).run(*app);

  expect_reports_identical(run.report, classic.report);
  EXPECT_EQ(run.trace.to_csv(), classic.hslb.trace.to_csv());
  ASSERT_EQ(run.solution.allocation.tasks.size(),
            classic.allocation.tasks.size());
  for (std::size_t i = 0; i < classic.allocation.tasks.size(); ++i)
    EXPECT_EQ(run.solution.allocation.tasks[i].nodes,
              classic.allocation.tasks[i].nodes);

  // The registry app also reports the HSLB-vs-DLB baseline.
  auto* baseline = dynamic_cast<BaselineReporter*>(app.get());
  ASSERT_NE(baseline, nullptr);
  EXPECT_EQ(baseline->hslb_total_seconds(), classic.hslb.total_seconds);
  EXPECT_EQ(baseline->dlb_total_seconds(), classic.dlb.total_seconds);
}

TEST_F(RegistryTest, FmoMinlpPathMatchesIncludingBnbNodeCounts) {
  const auto sys = fmo::make_system("water", 6);
  auto opt = small_fmo_options();
  opt.solve_with_minlp = true;
  const auto classic = fmo::run_pipeline(sys, fmo::CostModel{}, 24, opt);

  ScenarioSpec spec;
  spec.substrate = "fmo";
  spec.variant = "water";
  spec.tasks = 6;
  spec.nodes = 24;
  spec.minlp = true;
  const auto app = SubstrateRegistry::instance().make(spec);
  const auto run = Pipeline(single_thread()).run(*app);

  EXPECT_GT(run.report.solver.nodes, 0u);
  expect_reports_identical(run.report, classic.report);
}

TEST_F(RegistryTest, CesmRegistryAppMatchesRunPipeline) {
  cesm::PipelineOptions opt;
  opt.sim.seed = 7;  // the registry maps ScenarioSpec::run_seed (default 7)
  const auto classic = cesm::run_pipeline(cesm::Resolution::Deg1, 128, opt);

  ScenarioSpec spec;
  spec.substrate = "cesm";
  spec.variant = "layout1";
  spec.nodes = 128;
  const auto app = SubstrateRegistry::instance().make(spec);
  const auto run = Pipeline(single_thread()).run(*app);

  expect_reports_identical(run.report, classic.report);
  EXPECT_EQ(run.trace.to_csv(), classic.coupled.trace.to_csv());
  EXPECT_EQ(run.report.actual_total, classic.actual_total);
}

TEST_F(RegistryTest, SharedThreadPoolInterleavedParity) {
  ScenarioSpec fmm_spec;
  fmm_spec.substrate = "fmm";
  fmm_spec.tasks = 6;
  fmm_spec.nodes = 24;
  ScenarioSpec amrex_spec;
  amrex_spec.substrate = "amrex";
  amrex_spec.tasks = 6;
  amrex_spec.nodes = 24;

  // Solo reference runs, each on its own engine-owned pool.
  const auto& reg = SubstrateRegistry::instance();
  const Pipeline engine{single_thread()};
  auto fmm_solo = engine.run(*reg.make(fmm_spec));
  auto amrex_solo = engine.run(*reg.make(amrex_spec));

  // Interleaved runs on one shared caller-owned pool: A, B, A again.
  ThreadPool pool(4);
  auto fmm_app = reg.make(fmm_spec);
  auto amrex_app = reg.make(amrex_spec);
  auto fmm_shared = engine.run(*fmm_app, pool);
  auto amrex_shared = engine.run(*amrex_app, pool);
  auto fmm_again = engine.run(*fmm_app, pool);

  EXPECT_EQ(fmm_shared.trace.to_csv(), fmm_solo.trace.to_csv());
  EXPECT_EQ(fmm_again.trace.to_csv(), fmm_solo.trace.to_csv());
  EXPECT_EQ(amrex_shared.trace.to_csv(), amrex_solo.trace.to_csv());
  EXPECT_EQ(fmm_shared.report.actual_total, fmm_solo.report.actual_total);
  EXPECT_EQ(amrex_shared.report.actual_total, amrex_solo.report.actual_total);
  // The pool's size is reported, not the engine option.
  EXPECT_EQ(fmm_shared.report.threads, 4u);

  // Concurrent runs on the same pool from two threads: still identical.
  PipelineRun c1, c2;
  auto app1 = reg.make(fmm_spec);
  auto app2 = reg.make(amrex_spec);
  std::thread t1([&] { c1 = engine.run(*app1, pool); });
  std::thread t2([&] { c2 = engine.run(*app2, pool); });
  t1.join();
  t2.join();
  EXPECT_EQ(c1.trace.to_csv(), fmm_solo.trace.to_csv());
  EXPECT_EQ(c2.trace.to_csv(), amrex_solo.trace.to_csv());

  // The MINLP solve: the pool is lent to each run's Solve hook, so two
  // concurrent branch-and-bound searches queue their node waves on it.
  fmm_spec.minlp = amrex_spec.minlp = true;
  const auto fmm_minlp_solo = engine.run(*reg.make(fmm_spec));
  const auto amrex_minlp_solo = engine.run(*reg.make(amrex_spec));
  EXPECT_GT(fmm_minlp_solo.report.solver.nodes, 0u);
  EXPECT_GT(amrex_minlp_solo.report.solver.nodes, 0u);
  auto app3 = reg.make(fmm_spec);
  auto app4 = reg.make(amrex_spec);
  std::thread t3([&] { c1 = engine.run(*app3, pool); });
  std::thread t4([&] { c2 = engine.run(*app4, pool); });
  t3.join();
  t4.join();
  EXPECT_EQ(c1.trace.to_csv(), fmm_minlp_solo.trace.to_csv());
  EXPECT_EQ(c2.trace.to_csv(), amrex_minlp_solo.trace.to_csv());
  expect_reports_identical(c1.report, fmm_minlp_solo.report);
  expect_reports_identical(c2.report, amrex_minlp_solo.report);
  EXPECT_EQ(c1.report.solver.threads, 4u);
  EXPECT_EQ(c2.report.solver.threads, 4u);
}

TEST_F(RegistryTest, FmoMinlpPipelineIdenticalForEveryPoolSize) {
  // The Solve step's branch and bound runs its waves on the pipeline's
  // pool; the search must not depend on that pool's size.
  ScenarioSpec spec;
  spec.substrate = "fmo";
  spec.variant = "water";
  spec.tasks = 32;
  spec.system_seed = 3;
  spec.minlp = true;
  spec.objective = Objective::MinMax;
  const auto& reg = SubstrateRegistry::instance();

  std::vector<PipelineRun> runs;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    PipelineOptions opt;
    opt.threads = threads;
    runs.push_back(Pipeline(opt).run(*reg.make(spec)));
    EXPECT_EQ(runs.back().report.solver.threads, threads);
  }
  const SolverStats& a = runs[0].report.solver;
  EXPECT_EQ(a.status, "optimal");
  EXPECT_GT(a.nodes, a.waves);  // some wave expands several nodes
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const SolverStats& b = runs[i].report.solver;
    const auto& x = runs[0].solution.allocation.tasks;
    const auto& y = runs[i].solution.allocation.tasks;
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t t = 0; t < x.size(); ++t) {
      EXPECT_EQ(x[t].task, y[t].task);
      EXPECT_EQ(x[t].nodes, y[t].nodes);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(runs[i].solution.predicted_total),
              std::bit_cast<std::uint64_t>(runs[0].solution.predicted_total));
    EXPECT_EQ(b.status, a.status);
    EXPECT_EQ(b.nodes, a.nodes);
    EXPECT_EQ(b.cuts, a.cuts);
    EXPECT_EQ(b.waves, a.waves);
    EXPECT_EQ(b.lp_solves, a.lp_solves);
    EXPECT_EQ(b.lp_pivots, a.lp_pivots);
    EXPECT_EQ(b.refactorizations, a.refactorizations);
    EXPECT_EQ(b.ft_updates, a.ft_updates);
    EXPECT_EQ(b.phase1_pivots, a.phase1_pivots);
    EXPECT_EQ(b.dual_pivots, a.dual_pivots);
    expect_reports_identical(runs[i].report, runs[0].report);
  }
}

TEST_F(RegistryTest, MinlpMaxMinRunsTheGreedyOnEverySubstrate) {
  // Max-min has no MINLP encoding: asking for the MINLP solve gives the
  // allocation of the plain greedy run (it used to abort in
  // build_budget_minlp).
  const auto& reg = SubstrateRegistry::instance();
  for (const char* substrate : {"fmo", "fmm", "amrex"}) {
    ScenarioSpec spec;
    spec.substrate = substrate;
    spec.tasks = 6;
    spec.nodes = substrate == std::string("fmo") ? 48 : 24;
    spec.objective = Objective::MaxMin;
    const auto greedy = Pipeline(single_thread()).run(*reg.make(spec));
    spec.minlp = true;
    const auto minlp = Pipeline(single_thread()).run(*reg.make(spec));
    EXPECT_EQ(minlp.solution.allocation.str(), greedy.solution.allocation.str())
        << substrate;
    EXPECT_EQ(minlp.report.solver.status, "max-min exact greedy") << substrate;
    EXPECT_EQ(minlp.report.solver.nodes, 0u) << substrate;
  }
}

TEST_F(RegistryTest, WaveSubstrateMinlpReportsCarryTheLpCounters) {
  // The wave engine's reports map the whole BnbResult, LP kernel and
  // presolve counters included, like FMO and CESM.
  const auto& reg = SubstrateRegistry::instance();
  for (const char* substrate : {"fmm", "amrex"}) {
    ScenarioSpec spec;
    spec.substrate = substrate;
    spec.tasks = 16;
    spec.nodes = 64;
    spec.minlp = true;
    const auto run = Pipeline(single_thread()).run(*reg.make(spec));
    const SolverStats& s = run.report.solver;
    EXPECT_GT(s.nodes, 0u) << substrate;
    EXPECT_GT(s.refactorizations + s.ft_updates + s.phase1_pivots +
                  s.dual_pivots + s.presolve_rows_removed,
              0u)
        << substrate;
  }
}

}  // namespace
}  // namespace hslb
