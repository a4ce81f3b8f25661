// hslb::Controller decision logic against a scripted fake application:
// trigger thresholds, hysteresis, the migration-aware accept test, the
// failure bypass, and the refit-on-drift path — all without a simulator,
// so each rule is pinned in isolation.
#include "hslb/controller.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "perf/fit.hpp"

namespace hslb {
namespace {

/// A pool of size 1 runs parallel_for on the calling thread; for the tests
/// that are not about threading.
ThreadPool& serial_pool() {
  static ThreadPool pool(1);
  return pool;
}

perf::SampleSet exact_samples(double a = 120.0, double d = 2.0) {
  perf::SampleSet s;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0})
    s.push_back({n, a / n + d});
  return s;
}

/// An epoch-capable application driven by a per-epoch script. resolve()
/// proposes a fresh allocation (distinct node count each call) with
/// configurable predicted gain; migration has a configurable stall.
class FakeApp : public Application {
 public:
  struct EpochScript {
    double imbalance = 0.0;
    bool failure = false;
    double epochs_remaining = 1.0;
    std::vector<perf::Observed> observations;
  };

  std::vector<EpochScript> script;
  double incumbent_predicted = 2.0;  ///< incumbent per-epoch prediction
  double proposal_predicted = 1.0;   ///< proposal per-epoch prediction
  double migration_stall = 0.0;

  std::size_t begins = 0, resolves = 0, applies = 0, finishes = 0;
  /// Refitted prediction for the probed width at the last resolve call.
  double last_resolve_pred8 = 0.0;

  std::string name() const override { return "fake"; }
  GatherPlan gather_plan() override { return {}; }
  double probe(const std::string&, long long, std::uint64_t) override {
    return 0.0;
  }
  SolveOutcome solve(
      const std::vector<std::pair<std::string, perf::FitResult>>&) override {
    return {};
  }
  double execute(const SolveOutcome&) override { return 0.0; }

  bool supports_epochs() const override { return true; }
  void begin_epochs(const SolveOutcome&) override { ++begins; }
  EpochOutcome execute_epoch(std::size_t epoch) override {
    EpochOutcome eo;
    if (epoch >= script.size()) {
      eo.done = true;
      return eo;
    }
    const EpochScript& s = script[epoch];
    eo.imbalance = s.imbalance;
    eo.failure_detected = s.failure;
    eo.epochs_remaining = s.epochs_remaining;
    eo.observations = s.observations;
    eo.epoch_seconds = 1.0;
    return eo;
  }
  ResolveOutcome resolve(
      const std::vector<std::pair<std::string, perf::FitResult>>& fits,
      const SolveOutcome&) override {
    ++resolves;
    if (!fits.empty()) last_resolve_pred8 = fits[0].second.cost.eval(8.0);
    ResolveOutcome r;
    // A distinct allocation each call, so repeated proposals are never
    // rejected as "same allocation".
    r.solution.allocation.tasks = {
        {"t", static_cast<long long>(100 + resolves), proposal_predicted}};
    r.solution.predicted_total = proposal_predicted;
    r.incumbent_predicted = incumbent_predicted;
    return r;
  }
  double migration_cost(const SolveOutcome&,
                        const SolveOutcome&) const override {
    return migration_stall;
  }
  double apply_allocation(const SolveOutcome&) override {
    ++applies;
    return migration_stall;
  }
  double finish_epochs() override {
    ++finishes;
    return 42.0;
  }
};

/// Gather table + fitted models for the single task "t".
struct World {
  perf::BenchTable bench;
  std::vector<std::pair<std::string, perf::FitResult>> fits;
  SolveOutcome solution;
};

World make_world() {
  World w;
  w.bench.tasks.push_back({"t", exact_samples()});
  w.fits.emplace_back("t", perf::fit(exact_samples()));
  w.solution.allocation.tasks = {{"t", 4, 32.0}};
  w.solution.predicted_total = 32.0;
  return w;
}

TEST(Controller, QuietRunNeverResolves) {
  FakeApp app;
  app.script.resize(3);  // three quiet epochs
  const World w = make_world();
  const Controller ctl({.adaptive = true}, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution,
                                   serial_pool());

  EXPECT_EQ(r.triggers, 0u);
  EXPECT_EQ(r.rebalances, 0u);
  EXPECT_EQ(r.refits, 0u);
  EXPECT_EQ(app.resolves, 0u);
  EXPECT_EQ(app.applies, 0u);
  EXPECT_EQ(app.begins, 1u);
  EXPECT_EQ(app.finishes, 1u);
  EXPECT_EQ(r.migration_seconds, 0.0);
  EXPECT_EQ(r.actual_total, 42.0);
  // The initial allocation stays in force.
  EXPECT_EQ(r.solution.allocation.tasks[0].nodes, 4);
}

TEST(Controller, ImbalanceAboveThresholdRebalances) {
  FakeApp app;
  app.script.resize(2);
  app.script[0].imbalance = 0.5;  // > default 0.25
  app.script[0].epochs_remaining = 5.0;
  const World w = make_world();
  const Controller ctl({.adaptive = true}, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution,
                                   serial_pool());

  EXPECT_EQ(r.triggers, 1u);
  EXPECT_EQ(r.rebalances, 1u);
  EXPECT_EQ(app.resolves, 1u);
  EXPECT_EQ(app.applies, 1u);
  EXPECT_EQ(r.solution.allocation.tasks[0].nodes, 101);
}

TEST(Controller, ImbalanceBelowThresholdIsIgnored) {
  FakeApp app;
  app.script.resize(2);
  app.script[0].imbalance = 0.2;  // < default 0.25
  const World w = make_world();
  const Controller ctl({.adaptive = true}, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution,
                                   serial_pool());
  EXPECT_EQ(r.triggers, 0u);
  EXPECT_EQ(app.resolves, 0u);
  (void)r;
}

TEST(Controller, MigrationAwareAcceptRejectsUnprofitableMove) {
  FakeApp app;
  app.script.resize(2);
  app.script[0].imbalance = 0.5;
  app.script[0].epochs_remaining = 2.0;
  app.incumbent_predicted = 1.0;
  app.proposal_predicted = 0.9;  // gain 0.1/epoch, 0.2 over the run
  app.migration_stall = 0.5;     // costs more than it saves
  const World w = make_world();
  const Controller ctl({.adaptive = true}, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution,
                                   serial_pool());

  EXPECT_EQ(r.triggers, 1u);
  EXPECT_EQ(app.resolves, 1u);
  EXPECT_EQ(r.rebalances, 0u);  // proposal rejected
  EXPECT_EQ(app.applies, 0u);
  EXPECT_EQ(r.migration_seconds, 0.0);
}

TEST(Controller, MigrationAwareOffAcceptsAnyImprovement) {
  FakeApp app;
  app.script.resize(2);
  app.script[0].imbalance = 0.5;
  app.script[0].epochs_remaining = 2.0;
  app.incumbent_predicted = 1.0;
  app.proposal_predicted = 0.9;
  app.migration_stall = 0.5;
  const World w = make_world();
  RebalancePolicy policy{.adaptive = true};
  policy.migration_aware = false;
  const Controller ctl(policy, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution,
                                   serial_pool());
  EXPECT_EQ(r.rebalances, 1u);
  EXPECT_EQ(r.migration_seconds, 0.5);  // the stall is still charged
}

TEST(Controller, FailureBypassesAcceptTest) {
  FakeApp app;
  app.script.resize(2);
  app.script[0].failure = true;
  // The proposal is *worse* and migration is expensive; a failure accepts
  // anyway — any feasible allocation beats a wedged run.
  app.incumbent_predicted = 1.0;
  app.proposal_predicted = 5.0;
  app.migration_stall = 10.0;
  const World w = make_world();
  const Controller ctl({.adaptive = true}, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution,
                                   serial_pool());

  EXPECT_EQ(r.rebalances, 1u);
  EXPECT_EQ(app.applies, 1u);
  EXPECT_EQ(r.migration_seconds, 10.0);
}

TEST(Controller, HysteresisGatesBothFirstAndRepeatTriggers) {
  FakeApp app;
  app.script.resize(6);
  for (auto& e : app.script) {
    e.imbalance = 0.5;
    e.epochs_remaining = 5.0;
  }
  const World w = make_world();
  RebalancePolicy policy{.adaptive = true};
  policy.min_epoch_gap = 3;
  const Controller ctl(policy, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution,
                                   serial_pool());

  // Epochs 0-5 all violate the threshold; the gap admits only epochs 2
  // (first allowed: epoch + 1 >= 3) and 5 (3 epochs after the accept).
  EXPECT_EQ(r.triggers, 2u);
  EXPECT_EQ(r.rebalances, 2u);
}

TEST(Controller, MaxEpochsStopsMonitoringNotExecution) {
  FakeApp app;
  app.script.resize(5);
  for (auto& e : app.script) {
    e.imbalance = 0.5;
    e.epochs_remaining = 5.0;
  }
  const World w = make_world();
  RebalancePolicy policy{.adaptive = true};
  policy.max_epochs = 2;
  const Controller ctl(policy, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution,
                                   serial_pool());

  // Only epochs 0 and 1 are monitored; execution still runs to done.
  EXPECT_EQ(r.triggers, 2u);
  EXPECT_EQ(app.finishes, 1u);
  EXPECT_EQ(r.actual_total, 42.0);
}

TEST(Controller, DriftTriggersRefitAndResolvesUnderNewModels) {
  FakeApp app;
  app.script.resize(3);
  // Quiet imbalance, but the task runs 2x slower than the fitted model at
  // every observed width.
  for (double n : {4.0, 8.0}) {
    app.script[0].observations.push_back(
        {"t", n, 2.0 * (120.0 / n + 2.0), 0});
  }
  const World w = make_world();
  const double stale_pred8 = w.fits[0].second.cost.eval(8.0);
  const Controller ctl({.adaptive = true}, {});
  const AdaptiveResult r = ctl.run(app, w.bench, w.fits, w.solution,
                                   serial_pool());

  EXPECT_GE(r.triggers, 1u);       // drift 1.0 > default 0.10
  EXPECT_GE(r.refits, 1u);
  EXPECT_GE(r.max_drift, 0.9);
  // The resolve saw refitted models that track the slower truth.
  EXPECT_GT(app.last_resolve_pred8, stale_pred8);
  // And the result carries the refitted models out.
  EXPECT_GT(r.fits[0].second.cost.eval(8.0), stale_pred8);
}

TEST(Controller, DecisionsArePureFunctionsOfTheScript) {
  const World w = make_world();
  auto run_once = [&] {
    FakeApp app;
    app.script.resize(4);
    app.script[1].imbalance = 0.5;
    app.script[2].failure = true;
    const Controller ctl({.adaptive = true}, {});
    return ctl.run(app, w.bench, w.fits, w.solution, serial_pool());
  };
  const AdaptiveResult a = run_once();
  const AdaptiveResult b = run_once();
  EXPECT_EQ(a.triggers, b.triggers);
  EXPECT_EQ(a.rebalances, b.rebalances);
  EXPECT_EQ(a.refits, b.refits);
  EXPECT_EQ(a.migration_seconds, b.migration_seconds);
  EXPECT_EQ(a.solution.allocation.tasks[0].nodes,
            b.solution.allocation.tasks[0].nodes);
}

/// Four tasks with distinct gather curves. script_drift slows three of
/// them at different rates, so every refit round has several tasks.
World make_multi_world() {
  World w;
  for (int k = 0; k < 4; ++k) {
    const std::string task = "t" + std::to_string(k);
    const double a = 60.0 * (k + 1), d = 1.0 + k;
    w.bench.tasks.push_back({task, exact_samples(a, d)});
    w.fits.emplace_back(task, perf::fit(exact_samples(a, d)));
    w.solution.allocation.tasks.push_back({task, 4, a / 4.0 + d});
  }
  w.solution.predicted_total = 32.0;
  return w;
}

void script_drift(FakeApp& app) {
  app.script.resize(4);
  for (std::size_t e = 0; e < app.script.size(); ++e) {
    auto& epoch = app.script[e];
    epoch.epochs_remaining = 4.0 - static_cast<double>(e);
    epoch.imbalance = e == 2 ? 0.5 : 0.0;
    for (int k = 0; k < 3; ++k) {
      const double a = 60.0 * (k + 1), d = 1.0 + k;
      const double slow = 1.0 + 0.3 * (k + 1) * static_cast<double>(e + 1);
      for (double n : {2.0, 4.0, 8.0})
        epoch.observations.push_back(
            {"t" + std::to_string(k), n, slow * (a / n + d), 0});
    }
  }
}

void expect_same_params(const perf::FitResult& a, const perf::FitResult& b) {
  ASSERT_EQ(a.cost.num_terms(), b.cost.num_terms());
  for (std::size_t k = 0; k < a.cost.num_terms(); ++k) {
    const auto pa = a.cost.params(k), pb = b.cost.params(k);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t j = 0; j < pa.size(); ++j)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pa[j]),
                std::bit_cast<std::uint64_t>(pb[j]));
  }
  EXPECT_EQ(a.starts_tried, b.starts_tried);
  EXPECT_EQ(a.refit_fallback, b.refit_fallback);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sse),
            std::bit_cast<std::uint64_t>(b.sse));
}

TEST(Controller, PooledRefitsMatchSerialBitForBit) {
  const World w = make_multi_world();
  auto run_with = [&](ThreadPool& pool) {
    FakeApp app;
    script_drift(app);
    const Controller ctl({.adaptive = true}, {});
    return ctl.run(app, w.bench, w.fits, w.solution, pool);
  };
  const AdaptiveResult serial = run_with(serial_pool());
  // The script must make the pool do real work: several tasks per round.
  ASSERT_GE(serial.refits, 2u);
  ASSERT_GE(serial.task_refits, 3 * serial.refits);

  for (std::size_t threads : {2u, 3u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const AdaptiveResult r = run_with(pool);
    EXPECT_EQ(r.epochs, serial.epochs);
    EXPECT_EQ(r.triggers, serial.triggers);
    EXPECT_EQ(r.rebalances, serial.rebalances);
    EXPECT_EQ(r.refits, serial.refits);
    EXPECT_EQ(r.task_refits, serial.task_refits);
    EXPECT_EQ(r.refit_fallbacks, serial.refit_fallbacks);
    EXPECT_EQ(r.migration_seconds, serial.migration_seconds);
    EXPECT_EQ(r.actual_total, serial.actual_total);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.max_drift),
              std::bit_cast<std::uint64_t>(serial.max_drift));
    ASSERT_EQ(r.solution.allocation.tasks.size(),
              serial.solution.allocation.tasks.size());
    for (std::size_t i = 0; i < r.solution.allocation.tasks.size(); ++i) {
      EXPECT_EQ(r.solution.allocation.tasks[i].task,
                serial.solution.allocation.tasks[i].task);
      EXPECT_EQ(r.solution.allocation.tasks[i].nodes,
                serial.solution.allocation.tasks[i].nodes);
    }
    ASSERT_EQ(r.fits.size(), serial.fits.size());
    for (std::size_t i = 0; i < r.fits.size(); ++i) {
      EXPECT_EQ(r.fits[i].first, serial.fits[i].first);
      expect_same_params(r.fits[i].second, serial.fits[i].second);
    }
  }
}

TEST(Controller, CountsWarmRefitFallbacks) {
  const World w = make_multi_world();
  const Controller ctl({.adaptive = true}, {});

  // Observations that sit exactly on the fitted models: the warm start is
  // already the optimum, so every refit converges without the multistart.
  FakeApp quiet;
  quiet.script.resize(2);
  quiet.script[0].imbalance = 0.5;
  quiet.script[0].epochs_remaining = 2.0;
  for (const auto& [task, fit] : w.fits)
    for (double n : {2.0, 4.0, 8.0})
      quiet.script[0].observations.push_back({task, n, fit.cost.eval(n), 0});
  const AdaptiveResult on_model =
      ctl.run(quiet, w.bench, w.fits, w.solution, serial_pool());
  EXPECT_EQ(on_model.refits, 1u);
  EXPECT_EQ(on_model.task_refits, 4u);
  EXPECT_EQ(on_model.refit_fallbacks, 0u);

  // Growing drift on three tasks: only those are refitted (t3 keeps its
  // model), and the warm fits fall back to the multistart.
  FakeApp drifting;
  script_drift(drifting);
  const AdaptiveResult r =
      ctl.run(drifting, w.bench, w.fits, w.solution, serial_pool());
  EXPECT_EQ(r.task_refits, 3 * r.refits);
  EXPECT_EQ(r.fits[3].second.starts_tried, w.fits[3].second.starts_tried);
  EXPECT_FALSE(r.fits[3].second.refit_fallback);
  EXPECT_GT(r.refit_fallbacks, 0u);
  EXPECT_LE(r.refit_fallbacks, r.task_refits);
  // The last round's fallbacks are visible in the final models.
  std::size_t last_round = 0;
  for (std::size_t i = 0; i < 3; ++i)
    if (r.fits[i].second.refit_fallback) ++last_round;
  EXPECT_LE(last_round, r.refit_fallbacks);

  // A single-start multistart still counts as a fallback: the count does
  // not depend on how many starts the fallback tries.
  FakeApp one_start;
  script_drift(one_start);
  const Controller single({.adaptive = true}, {.num_starts = 1});
  const AdaptiveResult s =
      single.run(one_start, w.bench, w.fits, w.solution, serial_pool());
  EXPECT_GT(s.refit_fallbacks, 0u);
  for (const auto& [task, fit] : s.fits) {
    if (fit.refit_fallback) {
      EXPECT_EQ(fit.starts_tried, 1u) << task;
    }
  }
}

}  // namespace
}  // namespace hslb
