#include "traced_app.hpp"

#include <stdexcept>
#include <utility>

namespace perfbench {

TracedApplication::TracedApplication(std::shared_ptr<hslb::Application> inner,
                                     Tracer& tracer)
    : inner_(std::move(inner)),
      baseline_(dynamic_cast<hslb::BaselineReporter*>(inner_.get())),
      tracer_(tracer) {}

std::string TracedApplication::name() const { return inner_->name(); }

hslb::GatherPlan TracedApplication::gather_plan() {
  gather_parent_ = tracer_.current();
  ScopedSpan span(tracer_, "hook.gather_plan");
  return inner_->gather_plan();
}

double TracedApplication::probe(const std::string& task, long long nodes,
                                std::uint64_t rep) {
  ScopedSpan span(tracer_, "hook.probe", gather_parent_);
  return inner_->probe(task, nodes, rep);
}

hslb::perf::FitOptions TracedApplication::fit_options() const {
  ScopedSpan span(tracer_, "hook.fit_options");
  return inner_->fit_options();
}

hslb::SolveOutcome TracedApplication::solve(
    const std::vector<std::pair<std::string, hslb::perf::FitResult>>& fits) {
  hslb::SolveOutcome out;
  {
    ScopedSpan span(tracer_, "hook.solve");
    out = inner_->solve(fits);
  }
  solve_returned_ = std::chrono::steady_clock::now();
  return out;
}

double TracedApplication::execute(const hslb::SolveOutcome& solution) {
  ScopedSpan span(tracer_, "hook.execute");
  return inner_->execute(solution);
}

hslb::sim::Machine TracedApplication::machine() const {
  ScopedSpan span(tracer_, "hook.machine");
  return inner_->machine();
}

const hslb::sim::Trace* TracedApplication::execution_trace() const {
  ScopedSpan span(tracer_, "hook.execution_trace");
  return inner_->execution_trace();
}

bool TracedApplication::execution_completed() const {
  ScopedSpan span(tracer_, "hook.execution_completed");
  return inner_->execution_completed();
}

std::vector<std::pair<std::string, double>>
TracedApplication::execution_term_seconds() const {
  ScopedSpan span(tracer_, "hook.execution_term_seconds");
  return inner_->execution_term_seconds();
}

bool TracedApplication::supports_epochs() const {
  ScopedSpan span(tracer_, "hook.supports_epochs");
  return inner_->supports_epochs();
}

hslb::perf::CostModelSpec TracedApplication::fit_spec() const {
  ScopedSpan span(tracer_, "hook.fit_spec");
  return inner_->fit_spec();
}

void TracedApplication::begin_epochs(const hslb::SolveOutcome& solution) {
  controller_span_ = tracer_.begin("controller.execute");
  ScopedSpan span(tracer_, "hook.begin_epochs");
  inner_->begin_epochs(solution);
}

hslb::EpochOutcome TracedApplication::execute_epoch(std::size_t epoch) {
  ScopedSpan span(tracer_, "hook.execute_epoch");
  return inner_->execute_epoch(epoch);
}

hslb::ResolveOutcome TracedApplication::resolve(
    const std::vector<std::pair<std::string, hslb::perf::FitResult>>& fits,
    const hslb::SolveOutcome& incumbent) {
  ScopedSpan span(tracer_, "hook.resolve");
  return inner_->resolve(fits, incumbent);
}

double TracedApplication::migration_cost(const hslb::SolveOutcome& from,
                                         const hslb::SolveOutcome& to) const {
  ScopedSpan span(tracer_, "hook.migration_cost");
  return inner_->migration_cost(from, to);
}

double TracedApplication::apply_allocation(const hslb::SolveOutcome& solution) {
  ScopedSpan span(tracer_, "hook.apply_allocation");
  return inner_->apply_allocation(solution);
}

double TracedApplication::finish_epochs() {
  double out = 0.0;
  {
    ScopedSpan span(tracer_, "hook.finish_epochs");
    out = inner_->finish_epochs();
  }
  tracer_.end(controller_span_);
  controller_span_ = Tracer::kNone;
  return out;
}

double TracedApplication::hslb_total_seconds() {
  if (baseline_ == nullptr)
    throw std::logic_error(name() + " does not report baseline totals");
  return baseline_->hslb_total_seconds();
}

double TracedApplication::dlb_total_seconds() {
  if (baseline_ == nullptr)
    throw std::logic_error(name() + " does not report baseline totals");
  return baseline_->dlb_total_seconds();
}

}  // namespace perfbench
