// Forwarding hslb::Application that records a span around every hook the
// Pipeline engine and hslb::Controller call, and forwards the
// BaselineReporter side interface of the application it wraps.
//
// Span names are "hook.<hook>". On the closed-loop path the wrapper also
// opens "controller.execute" from the start of begin_epochs to the end of
// finish_epochs: the Controller's monitor, refits and accept tests are that
// span's self time. The wrapper always notes when the solve hook returned
// (one clock read), so untraced runs can still report time to allocation.
#pragma once

#include <chrono>
#include <memory>

#include "hslb/pipeline.hpp"
#include "hslb/registry.hpp"
#include "spans.hpp"

namespace perfbench {

class TracedApplication final : public hslb::Application,
                                public hslb::BaselineReporter {
 public:
  TracedApplication(std::shared_ptr<hslb::Application> inner, Tracer& tracer);

  /// When the last solve hook returned.
  std::chrono::steady_clock::time_point solve_returned() const {
    return solve_returned_;
  }

  std::string name() const override;
  hslb::GatherPlan gather_plan() override;
  double probe(const std::string& task, long long nodes,
               std::uint64_t rep) override;
  hslb::perf::FitOptions fit_options() const override;
  hslb::SolveOutcome solve(
      const std::vector<std::pair<std::string, hslb::perf::FitResult>>& fits)
      override;
  double execute(const hslb::SolveOutcome& solution) override;
  hslb::sim::Machine machine() const override;
  const hslb::sim::Trace* execution_trace() const override;
  bool execution_completed() const override;
  std::vector<std::pair<std::string, double>> execution_term_seconds()
      const override;

  bool supports_epochs() const override;
  hslb::perf::CostModelSpec fit_spec() const override;
  void begin_epochs(const hslb::SolveOutcome& solution) override;
  hslb::EpochOutcome execute_epoch(std::size_t epoch) override;
  hslb::ResolveOutcome resolve(
      const std::vector<std::pair<std::string, hslb::perf::FitResult>>& fits,
      const hslb::SolveOutcome& incumbent) override;
  double migration_cost(const hslb::SolveOutcome& from,
                        const hslb::SolveOutcome& to) const override;
  double apply_allocation(const hslb::SolveOutcome& solution) override;
  double finish_epochs() override;

  double hslb_total_seconds() override;
  double dlb_total_seconds() override;

 private:
  std::shared_ptr<hslb::Application> inner_;
  hslb::BaselineReporter* baseline_;
  Tracer& tracer_;
  /// Span probes (run on pool workers) hang under: the span open on the
  /// caller's thread when gather_plan ran.
  int gather_parent_ = Tracer::kNone;
  int controller_span_ = Tracer::kNone;
  std::chrono::steady_clock::time_point solve_returned_{};
};

}  // namespace perfbench
