// Golden for the Fit step: the multistart Levenberg-Marquardt path must
// reproduce its results bit for bit. Three cases:
//   (a) perf::fit_all over the gather table of a 32-fragment water cluster
//       (system seed 3) on a 2-thread pool — every task's parameter bits,
//       SSE bits and multistart counts;
//   (b) that scenario's closed-loop run under stragglers — the models in
//       force when execution ended (warm refits and their multistart
//       fallbacks), plus the refit counters;
//   (c) a multi-term spec (power law + fitted comm + pinned memory), so the
//       generic term path is pinned as well as the power law.
// The determinism tests elsewhere compare runs against each other; this
// one pins the fit itself, so a kernel change that moves one bit shows here.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "hslb/pipeline.hpp"
#include "hslb/registry.hpp"
#include "perf/fit.hpp"
#include "sim/noise.hpp"
#include "substrates/registry_builtins.hpp"

namespace hslb {
namespace {

using Fits = std::vector<std::pair<std::string, perf::FitResult>>;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Order-sensitive digest of every task name, parameter bit pattern, SSE bit
/// pattern and multistart count.
std::uint64_t digest(const Fits& fits) {
  hash::Fnv1a h;
  for (const auto& [task, fit] : fits) {
    h.mix(std::string_view(task));
    for (std::size_t t = 0; t < fit.cost.num_terms(); ++t)
      for (double p : fit.cost.params(t)) h.mix(bits(p));
    h.mix(bits(fit.sse));
    h.mix(static_cast<std::uint64_t>(fit.starts_tried));
    h.mix(static_cast<std::uint64_t>(fit.starts_converged));
  }
  return h.value();
}

ScenarioSpec water_spec() {
  substrates::register_builtin_substrates();
  ScenarioSpec spec;
  spec.substrate = "fmo";
  spec.variant = "water";
  spec.tasks = 32;
  spec.nodes = 512;
  spec.system_seed = 3;
  return spec;
}

TEST(FitPathGolden, FitAllOnWaterGatherTableIsPinned) {
  auto app = SubstrateRegistry::instance().make(water_spec());
  PipelineOptions opt;
  opt.threads = 2;
  const PipelineRun run = Pipeline(opt).run(*app);

  ThreadPool pool(2);
  const Fits fits =
      perf::fit_all(run.bench, app->fit_options(), &pool, app->fit_spec());
  ASSERT_EQ(fits.size(), 32u);
  EXPECT_EQ(digest(fits), digest(run.fits));

  std::vector<std::size_t> tried, converged;
  for (const auto& [task, fit] : fits) {
    tried.push_back(fit.starts_tried);
    converged.push_back(fit.starts_converged);
  }
  EXPECT_EQ(tried, std::vector<std::size_t>(32, 24));
  const std::vector<std::size_t> expected_converged = {
      0, 24, 0, 0, 12, 2, 0, 0,  0, 13, 1,  0,  0,  0, 0,  0,
      3, 0,  0, 7, 0,  0, 2, 0, 0, 24, 24, 24, 24, 0, 20, 1};
  EXPECT_EQ(converged, expected_converged);

  // The first task spelled out (a = 2.3656..., b = 0, c = 2.9092...,
  // d = 0.014158..., SSE = 2.2115e-4); the digest covers all 32.
  const perf::Model& m = fits.front().second.model;
  EXPECT_EQ(bits(m.a), 4612509394139875369u) << m.a;
  EXPECT_EQ(bits(m.b), 0u) << m.b;
  EXPECT_EQ(bits(m.c), 4613733334218890750u) << m.c;
  EXPECT_EQ(bits(m.d), 4579315254501606827u) << m.d;
  EXPECT_EQ(bits(fits.front().second.sse), 4552291112069831342u)
      << fits.front().second.sse;
  EXPECT_EQ(digest(fits), 12458727446752862008u);
}

TEST(FitPathGolden, AdaptiveRefitsUnderStragglersArePinned) {
  ScenarioSpec spec = water_spec();
  spec.straggler_cv = 0.4;
  spec.rebalance.adaptive = true;
  auto app = SubstrateRegistry::instance().make(spec);
  PipelineOptions opt;
  opt.threads = 2;
  opt.rebalance = spec.rebalance;
  const PipelineRun run = Pipeline(opt).run(*app);

  ASSERT_EQ(run.final_fits.size(), 32u);
  EXPECT_EQ(run.report.epochs, 11u);
  EXPECT_EQ(run.report.rebalances, 10u);
  EXPECT_EQ(run.report.task_refits, 320u);
  EXPECT_EQ(run.report.refit_fallbacks, 305u);
  EXPECT_EQ(digest(run.final_fits), 11745490242237899259u);
}

/// Noisy samples of a power law plus a halo-exchange term plus paging.
perf::SampleSet multi_term_samples() {
  const perf::Model truth{800.0, 0.05, 1.5, 3.0};
  const double volume_gb = 0.05, beta = 2.0;
  const double memory_gb = 40.0, capacity_gb = 16.0, gamma = 0.5;
  perf::SampleSet samples;
  for (long long n : {1, 2, 4, 8, 16, 32, 64}) {
    const double x = static_cast<double>(n);
    const double t = truth.eval(x) + beta * volume_gb * x +
                     gamma * std::max(0.0, memory_gb - capacity_gb * x);
    sim::NoiseModel noise(0.03, derive_seed(21, static_cast<std::uint64_t>(n)));
    samples.push_back({x, noise.perturb(t)});
  }
  return samples;
}

TEST(FitPathGolden, MultiTermFitIsPinned) {
  const perf::CostModelSpec spec = {perf::power_law_term(),
                                    perf::make_comm_term(0.05),
                                    perf::make_memory_term(40.0, 16.0, 0.5)};
  const perf::FitResult fit = perf::fit_cost(multi_term_samples(), spec);
  ASSERT_EQ(fit.cost.num_terms(), 3u);
  ASSERT_EQ(fit.cost.params(1).size(), 1u);
  ASSERT_TRUE(fit.cost.params(2).empty());
  const auto pl = fit.cost.params(0);
  // a = 797.12..., b = 0.19450..., c = 1.02256..., d = 0 (at its bound),
  // beta = 6.0519..., SSE = 542.42...
  EXPECT_EQ(bits(pl[0]), 4650222720672558831u) << pl[0];
  EXPECT_EQ(bits(pl[1]), 4596175777038289317u) << pl[1];
  EXPECT_EQ(bits(pl[2]), 4607284024478288146u) << pl[2];
  EXPECT_EQ(bits(pl[3]), 0u) << pl[3];
  EXPECT_EQ(bits(fit.cost.params(1)[0]), 4618499857553605244u)
      << fit.cost.params(1)[0];
  EXPECT_EQ(bits(fit.sse), 4647982368095766937u) << fit.sse;
  EXPECT_EQ(fit.starts_tried, 24u);
  EXPECT_EQ(fit.starts_converged, 0u);
  EXPECT_EQ(fit.converged, false);
}

}  // namespace
}  // namespace hslb
