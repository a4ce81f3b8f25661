// Self-tests of the benchmark: seeded inputs, percentiles, span arithmetic,
// stream shares, and the forwarding Application wrapper. Run with
// `python3 perfbench/run.py --selftest` (or ctest in the perfbench build).
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "hslb/pipeline.hpp"
#include "hslb/registry.hpp"
#include "service/protocol.hpp"
#include "spans.hpp"
#include "substrates/registry_builtins.hpp"
#include "traced_app.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using namespace perfbench;

std::string script_str(const Script& script) {
  std::string s;
  for (const auto& batch : script) {
    s += "|";
    for (const auto& r : batch)
      s += std::to_string(r.id) + ":" + std::to_string(static_cast<int>(r.slot)) +
           ":" + hslb::service::format_request(r.request) + ";";
  }
  return s;
}

void test_seed_determines_inputs() {
  for (std::uint64_t seed : {1ull, 2ull, 7ull, 123456789ull}) {
    CHECK(fmo_minlp_scenarios(seed) == fmo_minlp_scenarios(seed));
    CHECK(fmo_adaptive_scenarios(seed) == fmo_adaptive_scenarios(seed));
    CHECK(script_str(service_script(seed)) == script_str(service_script(seed)));
    CHECK(fmo_minlp_scenarios(seed) != fmo_minlp_scenarios(seed + 1));
    // fmo_adaptive runs one fixed scenario (see README.md).
    CHECK(fmo_adaptive_scenarios(seed) == fmo_adaptive_scenarios(seed + 1));
    CHECK(script_str(service_script(seed)) !=
          script_str(service_script(seed + 1)));
  }
}

void test_service_script_shape() {
  const Script script = service_script(5);
  std::size_t requests = 0;
  for (const auto& batch : script) {
    CHECK(batch.size() <= kServiceBatch);
    requests += batch.size();
  }
  CHECK(requests == 32);
  // A neighbour arrives exactly one batch after its family's fresh request,
  // a repeat two batches after, with the fresh request's exact budget.
  for (std::size_t b = 0; b < script.size(); ++b) {
    for (const auto& r : script[b]) {
      if (r.slot == Slot::Fresh) continue;
      const std::size_t back = r.slot == Slot::Neighbour ? 1 : 2;
      CHECK(b >= back);
      bool found = false;
      for (const auto& d : script[b - back]) {
        if (d.family != r.family || d.slot != Slot::Fresh) continue;
        found = true;
        if (r.slot == Slot::Repeat)
          CHECK(hslb::service::format_request(d.request) ==
                hslb::service::format_request(r.request));
        else
          CHECK(r.request.budget > d.request.budget);
      }
      CHECK(found);
    }
  }
}

void test_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const auto p90 = nearest_rank(v, 0.9, 10);
  CHECK(p90.has_value());
  CHECK(p90 && near(p90->value, 90.0));
  CHECK(p90 && p90->samples == 100);
  CHECK(p90 && p90->beyond == 10);
  // 99 samples leave only nine beyond rank ceil(89.1) = 90.
  v.pop_back();
  CHECK(!nearest_rank(v, 0.9, 10).has_value());
  const auto loose = nearest_rank(v, 0.9, 0);
  CHECK(loose && loose->beyond == 9 && loose->samples == 99);
  // Nearest rank picks a sample, never an interpolation.
  const auto p50 = nearest_rank({4.0, 1.0, 3.0, 2.0}, 0.5, 0);
  CHECK(p50 && near(p50->value, 2.0));
  CHECK(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
  CHECK(near(median({3.0, 1.0, 2.0}), 2.0));
  CHECK(!nearest_rank({}, 0.5, 0).has_value());
}

Span span(const char* name, double a, double b, int id, int parent) {
  return Span{name, a, b, id, parent, 0};
}

void test_self_time() {
  // root [0, 10] with children [1, 3], [2, 5] (overlapping) and [8, 9];
  // the grandchild [2, 4] must not count against the root.
  const std::vector<Span> spans = {
      span("root", 0, 10, 0, -1), span("a", 1, 3, 1, 0),
      span("b", 2, 5, 2, 0),      span("c", 8, 9, 3, 0),
      span("g", 2, 4, 4, 2),
  };
  CHECK(near(self_seconds(spans, 0), 10.0 - 4.0 - 1.0));
  CHECK(near(self_seconds(spans, 2), 3.0 - 2.0));
  CHECK(near(self_seconds(spans, 3), 1.0));
  // Window [4, 9]: children cover [4, 5] and [8, 9].
  CHECK(near(self_seconds_in(spans, 0, 4.0, 9.0), 5.0 - 2.0));
  CHECK(near(self_seconds_in(spans, 0, 9.0, 4.0), 0.0));
  CHECK(near(total_seconds(spans, "a"), 2.0));
  CHECK(near(total_self_seconds(spans, "root"), 5.0));
  CHECK(count(spans, "c") == 1);
  CHECK(nesting_violation(spans).empty());
  std::vector<Span> bad = spans;
  bad[3].end = 11.0;  // c outlasts root
  CHECK(!nesting_violation(bad).empty());
  CHECK(near(covered_seconds({{0, 1}, {0.5, 2}, {3, 4}}, 0, 10), 3.0));
}

void test_tracer_parents() {
  Tracer t(true);
  const int outer = t.begin("outer");
  const int inner = t.begin("inner");
  CHECK(t.current() == inner);
  t.end(inner);
  const int sibling = t.begin("sibling", outer);
  t.end(sibling);
  t.end(outer);
  const auto spans = t.spans();
  CHECK(spans.size() == 3);
  CHECK(spans[1].parent == outer && spans[2].parent == outer);
  CHECK(spans[0].parent == Tracer::kNone);
  CHECK(nesting_violation(spans).empty());
  Tracer off(false);
  CHECK(off.begin("x") == Tracer::kNone);
  CHECK(off.spans().empty());
}

void test_stream_shares() {
  const Script script = service_script(3);
  hslb::service::ServiceReport report;
  report.requests = 32;
  report.hits = 8;
  report.misses = 24;
  report.warm_solves = 14;
  report.cold_solves = 10;
  const Shares s = stream_shares(script, report);
  CHECK(near(s.intended_repeat, 0.25));
  CHECK(near(s.intended_warm, 0.5));
  CHECK(near(s.intended_cold, 0.25));
  CHECK(near(s.repeat, 0.25));
  CHECK(near(s.warm, 14.0 / 32.0));
  CHECK(near(s.cold, 10.0 / 32.0));
  const std::string line = s.str();
  CHECK(line.find("warm 0.438 (intended 0.500)") != std::string::npos);
}

/// A wrapped run must be indistinguishable from an unwrapped one.
void check_wrapper_parity(const hslb::ScenarioSpec& spec) {
  hslb::substrates::register_builtin_substrates();
  const auto& reg = hslb::SubstrateRegistry::instance();
  hslb::PipelineOptions opt;
  opt.threads = 2;
  opt.rebalance = spec.rebalance;

  const auto plain_app = reg.make(spec);
  const auto plain = hslb::Pipeline(opt).run(*plain_app);
  auto* plain_base = dynamic_cast<hslb::BaselineReporter*>(plain_app.get());

  Tracer tracer(true);
  TracedApplication wrapped(reg.make(spec), tracer);
  const auto traced = hslb::Pipeline(opt).run(wrapped);

  auto* wrapped_base = dynamic_cast<hslb::BaselineReporter*>(
      static_cast<hslb::Application*>(&wrapped));
  CHECK(plain_base != nullptr && wrapped_base != nullptr);
  const auto& a = plain.solution.allocation.tasks;
  const auto& b = traced.solution.allocation.tasks;
  CHECK(a.size() == b.size());
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
    CHECK(a[i].task == b[i].task && a[i].nodes == b[i].nodes);
  CHECK(plain.actual_total == traced.actual_total);
  CHECK(plain.report.predicted_total == traced.report.predicted_total);
  CHECK(plain.report.solver.nodes == traced.report.solver.nodes);
  CHECK(plain.report.solver.cuts == traced.report.solver.cuts);
  CHECK(plain.report.solver.lp_solves == traced.report.solver.lp_solves);
  CHECK(plain.report.epochs == traced.report.epochs);
  CHECK(plain.report.rebalances == traced.report.rebalances);
  CHECK(plain.report.exec_events == traced.report.exec_events);
  if (plain_base != nullptr && wrapped_base != nullptr) {
    CHECK(plain_base->hslb_total_seconds() == wrapped_base->hslb_total_seconds());
    CHECK(plain_base->dlb_total_seconds() == wrapped_base->dlb_total_seconds());
  }
  const auto spans = tracer.spans();
  CHECK(count(spans, "hook.solve") == 1);
  CHECK(count(spans, "hook.probe") == traced.report.probes);
  CHECK(nesting_violation(spans).empty());
  if (spec.rebalance.adaptive) {
    CHECK(count(spans, "controller.execute") == 1);
    CHECK(count(spans, "hook.execute_epoch") >= traced.report.epochs);
  } else {
    CHECK(count(spans, "hook.execute") == 1);
  }
}

void test_wrapper_parity() {
  hslb::ScenarioSpec minlp;
  minlp.substrate = "fmo";
  minlp.variant = "water";
  minlp.tasks = 12;
  minlp.nodes = 192;
  minlp.minlp = true;
  check_wrapper_parity(minlp);

  hslb::ScenarioSpec adaptive = minlp;
  adaptive.minlp = false;
  adaptive.straggler_cv = 0.4;
  adaptive.rebalance.adaptive = true;
  check_wrapper_parity(adaptive);
}

}  // namespace

int main() {
  test_seed_determines_inputs();
  test_service_script_shape();
  test_percentile();
  test_self_time();
  test_tracer_parents();
  test_stream_shares();
  test_wrapper_parity();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
