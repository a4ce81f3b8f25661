#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "fmo/cost.hpp"
#include "fmo/gddi.hpp"
#include "fmo/scenario.hpp"
#include "fmo/schedulers.hpp"
#include "hslb/pipeline.hpp"
#include "hslb/registry.hpp"
#include "minlp/bnb.hpp"
#include "substrates/registry_builtins.hpp"
#include "traced_app.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string fmt(const char* format, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

// -- seeded input generation ---------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Fisher-Yates shuffle driven by splitmix64, so a seed gives the same
/// order with every standard library.
template <class T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = splitmix64(state) % i;
    std::swap(v[i - 1], v[j]);
  }
}

// Fixed scenario catalogues. The workload seed draws the order the
// scenarios run in, not which scenarios run: B&B time is heavy-tailed in
// the system seed (48 fragments take 0.1 s to 22 s of solve), so freely
// drawn systems would make every timing spread wider than any usable
// bound. The B&B catalogue holds, for 32, 40, 48 and 64 fragments, the
// system seed of 1-10 with the lower-median solve time; 64 fragments at
// seed 9 (about 3900 nodes) is over half of a pass. README.md lists the
// solve time and node count of every candidate.
const std::vector<Scenario> kMinlpCatalogue = {
    {0, 32, 3}, {1, 40, 6}, {2, 48, 7}, {3, 64, 9},
};
const std::vector<Scenario> kAdaptiveCatalogue = {
    {0, 32, 3},
};
// Service families: one water system each, every family a distinct
// fragment count so a fresh system never finds a donor and solves cold.
const std::vector<std::pair<long long, std::uint64_t>> kServiceFamilies = {
    {16, 11}, {17, 12}, {18, 13}, {19, 14},
    {20, 15}, {21, 16}, {22, 17}, {23, 18},
};
constexpr long long kNodesPerFragment = 4;  // budget of a fresh request
constexpr long long kNeighbourStep = 4;     // budget step of a neighbour

std::vector<Scenario> drawn(std::vector<Scenario> catalogue,
                            std::uint64_t seed) {
  shuffle(catalogue, seed);
  return catalogue;
}

// -- one pass over a workload's fixed-size input -------------------------------

/// What one pass measured. `det` holds one line per scenario or request
/// (in catalogue / stream order) covering every deterministic output; two
/// passes agree when their det vectors are equal.
struct Pass {
  bool traced = false;
  double wall = 0.0;
  double alloc = 0.0;
  std::size_t items = 0;
  std::vector<double> latencies;
  std::vector<std::string> det;
  std::vector<std::string> failures;  ///< "<item>: <check>" per failed check
  std::size_t failed_items = 0;
  std::vector<double> makespans, speedups, pred_errors;  ///< per item
  std::map<std::string, double> layer;  ///< per-layer counts and span sums
  std::vector<Span> spans;
};

/// Peak resident set of this process image (VmHWM). Unlike getrusage's
/// ru_maxrss it restarts at exec, so it does not inherit the launcher's peak.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::string allocation_str(const hslb::Allocation& a) {
  std::string s;
  for (const auto& t : a.tasks) s += fmt("%s:%lld,", t.task.c_str(), t.nodes);
  return s;
}

/// Allocation checks shared by pipelines and the service: one entry per
/// task, every task at least one node, the total within budget.
void check_allocation(const hslb::Allocation& a, std::size_t tasks,
                      long long budget, std::vector<std::string>& bad) {
  if (a.tasks.size() != tasks)
    bad.push_back(fmt("allocation has %zu of %zu tasks", a.tasks.size(), tasks));
  for (const auto& t : a.tasks)
    if (t.nodes < 1) bad.push_back("task " + t.task + " has no node");
  if (a.total_nodes() > budget)
    bad.push_back(fmt("allocation uses %lld of %lld nodes", a.total_nodes(),
                      budget));
}

// -- pipeline workloads --------------------------------------------------------

struct PipelineInputs {
  std::vector<Scenario> scenarios;
  std::vector<long long> budgets;
  std::vector<std::shared_ptr<hslb::Application>> apps;
};

hslb::ScenarioSpec pipeline_spec(bool minlp, const Scenario& s) {
  hslb::ScenarioSpec spec;
  spec.substrate = "fmo";
  spec.variant = "water";
  spec.tasks = s.fragments;
  spec.nodes = 16 * s.fragments;
  spec.system_seed = s.system_seed;
  spec.objective = hslb::Objective::MinMax;
  spec.minlp = minlp;
  if (!minlp) {
    spec.straggler_cv = 0.4;
    spec.rebalance.adaptive = true;
  }
  return spec;
}

PipelineInputs pipeline_inputs(bool minlp, std::uint64_t seed,
                               Tracer& tracer) {
  hslb::substrates::register_builtin_substrates();
  PipelineInputs in;
  in.scenarios = minlp ? fmo_minlp_scenarios(seed) : fmo_adaptive_scenarios(seed);
  for (const auto& s : in.scenarios) {
    const hslb::ScenarioSpec spec = pipeline_spec(minlp, s);
    ScopedSpan span(tracer, "substrates.make");
    in.apps.push_back(hslb::SubstrateRegistry::instance().make(spec));
    in.budgets.push_back(spec.nodes);
  }
  return in;
}

Pass pipeline_pass(bool minlp, PipelineInputs& in, std::size_t threads,
                   Tracer& tracer) {
  Pass pass;
  pass.traced = tracer.enabled();
  const std::size_t n = in.scenarios.size();
  pass.items = n;
  pass.det.resize(n);
  pass.makespans.resize(n);
  pass.speedups.resize(n);
  pass.pred_errors.resize(n);

  hslb::PipelineOptions opt;
  opt.threads = threads;
  opt.rebalance = pipeline_spec(minlp, in.scenarios.front()).rebalance;

  std::vector<hslb::PipelineReport> reports(n);
  const auto pass_start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const Scenario& s = in.scenarios[i];
    const auto id = static_cast<std::size_t>(s.id);
    TracedApplication app(in.apps[i], tracer);
    tracer.set_run(static_cast<int>(id));
    const auto t0 = Clock::now();
    hslb::PipelineRun run;
    {
      ScopedSpan span(tracer, "pipeline.run");
      run = hslb::Pipeline(opt).run(app);
    }
    const auto t1 = Clock::now();
    pass.latencies.push_back(seconds_between(t0, t1));
    pass.alloc += seconds_between(t0, app.solve_returned());

    const hslb::PipelineReport& r = run.report;
    const hslb::SolverStats& st = r.solver;
    std::vector<std::string> bad;
    check_allocation(run.solution.allocation, r.fits.size(), in.budgets[i], bad);
    if (!r.exec_completed) bad.push_back("execution did not complete");
    if (minlp && (st.status != "optimal" || st.gap != 0.0))
      bad.push_back(fmt("B&B ended %s at gap %g", st.status.c_str(), st.gap));
    const double hslb_s = app.hslb_total_seconds();
    const double dlb_s = app.dlb_total_seconds();
    if (!(hslb_s > 0.0) || !(dlb_s > 0.0) || !std::isfinite(hslb_s) ||
        !std::isfinite(dlb_s))
      bad.push_back("non-positive makespan");
    for (const auto& b : bad)
      pass.failures.push_back(fmt("scenario %d (%lld fragments, system seed %llu): ",
                                  s.id, s.fragments,
                                  static_cast<unsigned long long>(s.system_seed)) +
                              b);
    if (!bad.empty()) ++pass.failed_items;

    pass.makespans[id] = hslb_s;
    pass.speedups[id] = dlb_s / hslb_s;
    pass.pred_errors[id] = std::fabs(r.prediction_error());
    pass.det[id] = fmt(
        "scenario %d n=%lld sys=%llu status=%s gap=%.17g hslb=%.17g dlb=%.17g "
        "pred=%.17g actual=%.17g nodes=%zu cuts=%zu waves=%zu lp=%zu piv=%zu "
        "warm=%zu refac=%zu ft=%zu p1=%zu dual=%zu pre=%zu retired=%zu "
        "pruned=%zu flops=%.17g probes=%zu fits=%zu events=%zu epochs=%zu "
        "rebal=%zu ",
        s.id, s.fragments, static_cast<unsigned long long>(s.system_seed),
        st.status.c_str(), st.gap, hslb_s, dlb_s, r.predicted_total,
        r.actual_total, st.nodes, st.cuts, st.waves, st.lp_solves,
        st.lp_pivots, st.warm_solves, st.refactorizations, st.ft_updates,
        st.phase1_pivots, st.dual_pivots, st.presolve_rows_removed,
        st.cuts_retired, st.nodes_propagated_infeasible, st.flop_reduction,
        r.probes, r.fits.size(), r.exec_events, r.epochs, r.rebalances) +
                   allocation_str(run.solution.allocation);
    reports[id] = r;
  }
  pass.wall = seconds_between(pass_start, Clock::now());

  // Per-layer counts, summed in catalogue order.
  auto& L = pass.layer;
  for (const auto& r : reports) {
    const auto& st = r.solver;
    L["minlp.nodes"] += static_cast<double>(st.nodes);
    L["minlp.cuts"] += static_cast<double>(st.cuts);
    L["minlp.waves"] += static_cast<double>(st.waves);
    L["minlp.cuts_retired"] += static_cast<double>(st.cuts_retired);
    L["minlp.nodes_pruned_pre_lp"] += static_cast<double>(st.nodes_propagated_infeasible);
    L["lp.solves"] += static_cast<double>(st.lp_solves);
    L["lp.pivots"] += static_cast<double>(st.lp_pivots);
    L["lp.refactorizations"] += static_cast<double>(st.refactorizations);
    L["lp.ft_updates"] += static_cast<double>(st.ft_updates);
    L["lp.phase1_pivots"] += static_cast<double>(st.phase1_pivots);
    L["lp.dual_pivots"] += static_cast<double>(st.dual_pivots);
    L["lp.presolve_rows_removed"] += static_cast<double>(st.presolve_rows_removed);
    L["lp.warm_solves"] += static_cast<double>(st.warm_solves);
    L["lp.flop_weighted"] += st.flop_reduction * static_cast<double>(st.lp_solves);
    L["perf.fit_tasks"] += static_cast<double>(r.fits.size());
    L["hslb.gather.probes"] += static_cast<double>(r.probes);
    L["sim.events"] += static_cast<double>(r.exec_events);
    if (!minlp) {
      L["hslb.controller.epochs"] += static_cast<double>(r.epochs);
      L["hslb.controller.rebalances"] += static_cast<double>(r.rebalances);
    }
  }

  if (pass.traced) {
    pass.spans = tracer.spans();
    const auto& sp = pass.spans;
    L["minlp.solve_s"] = total_seconds(sp, "hook.solve");
    L["hslb.gather.probe_busy_s"] = total_seconds(sp, "hook.probe");
    L["sim.execute_s"] = total_seconds(sp, "hook.execute") +
                         total_seconds(sp, "hook.execute_epoch");
    L["hslb.controller.self_s"] = total_self_seconds(sp, "controller.execute");
    L["hslb.controller.resolve_s"] = total_seconds(sp, "hook.resolve");
    L["hslb.controller.apply_s"] = total_seconds(sp, "hook.apply_allocation");
    // Fit stage: Pipeline::run's self time between the end of its last
    // Gather hook and the start of its solve hook.
    double fit = 0.0;
    for (const auto& run : sp) {
      if (run.name != "pipeline.run") continue;
      double gather_end = run.start;
      double solve_start = run.end;
      for (const auto& s : sp) {
        if (s.parent != run.id) continue;
        if (s.name == "hook.gather_plan" || s.name == "hook.probe")
          gather_end = std::max(gather_end, s.end);
        if (s.name == "hook.solve") solve_start = std::min(solve_start, s.start);
      }
      fit += self_seconds_in(sp, run.id, gather_end, solve_start);
    }
    L["perf.fit_s"] = fit;
  }
  return pass;
}

// -- service workload ----------------------------------------------------------

hslb::service::ServiceOptions service_options(std::size_t threads) {
  hslb::service::ServiceOptions opt;
  opt.threads = threads;
  opt.batch = kServiceBatch;
  opt.warm_start = true;
  return opt;
}

char result_class(const hslb::service::Response& r) {
  if (r.cache_hit) return 'H';
  if (r.audit_fallback) return 'A';
  return r.warm_seeded ? 'W' : 'C';
}

struct ServiceInputs {
  Script script;
  std::size_t requests = 0;
};

ServiceInputs service_inputs(std::uint64_t seed) {
  ServiceInputs in;
  in.script = service_script(seed);
  for (const auto& b : in.script) in.requests += b.size();
  // Construct (and tear down) the service the timed phase will use, so
  // set-up pays for the worker pool exactly as a real host would.
  { hslb::service::AllocationService service(service_options(kServiceThreads)); }
  return in;
}

Pass service_pass(const ServiceInputs& in, std::size_t threads, Tracer& tracer,
                  hslb::service::ServiceReport* report_out) {
  Pass pass;
  pass.traced = tracer.enabled();
  pass.items = in.requests;
  pass.det.resize(in.requests);
  pass.makespans.resize(in.requests);
  pass.pred_errors.resize(in.requests);

  hslb::service::AllocationService service(service_options(threads));
  std::vector<std::pair<const StreamRequest*, hslb::service::Response>> out;
  out.reserve(in.requests);
  const auto pass_start = Clock::now();
  int batch_id = 0;
  for (const auto& batch : in.script) {
    std::vector<hslb::service::Request> requests;
    requests.reserve(batch.size());
    for (const auto& r : batch) requests.push_back(r.request);
    tracer.set_run(batch_id++);
    const auto t0 = Clock::now();
    std::vector<hslb::service::Response> responses;
    {
      ScopedSpan span(tracer, "service.run_script");
      responses = service.run_script(requests);
    }
    const double latency = seconds_between(t0, Clock::now());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      pass.latencies.push_back(latency);
      pass.alloc += latency;
      out.emplace_back(&batch[k], std::move(responses[k]));
    }
  }
  pass.wall = seconds_between(pass_start, Clock::now());
  const hslb::service::ServiceReport& rep = service.report();
  if (report_out != nullptr) *report_out = rep;

  std::map<std::uint64_t, std::string> filled;  // signature -> solved payload
  for (const auto& [req, resp] : out) {
    std::vector<std::string> bad;
    const std::string line = resp.to_line();
    if (resp.status != "optimal") bad.push_back("status " + resp.status);
    check_allocation(resp.allocation,
                     static_cast<std::size_t>(req->request.fragments),
                     req->request.budget, bad);
    if (!(resp.actual_total > 0.0) || !(resp.predicted_total > 0.0))
      bad.push_back("non-positive predicted or actual total");
    if (resp.cache_hit) {
      const auto it = filled.find(resp.signature);
      if (it == filled.end())
        bad.push_back("hit with no earlier solve of its signature");
      else if (it->second != line)
        bad.push_back("hit differs from the solve that filled its slot");
    } else {
      filled.emplace(resp.signature, line);
    }
    for (const auto& b : bad)
      pass.failures.push_back(fmt("request %d: ", req->id) + b);
    if (!bad.empty()) ++pass.failed_items;

    const auto id = static_cast<std::size_t>(req->id);
    pass.makespans[id] = resp.actual_total;
    pass.pred_errors[id] =
        std::fabs(resp.actual_total - resp.predicted_total) /
        resp.predicted_total;
    pass.det[id] = fmt("%c ", result_class(resp)) + line;
  }

  auto& L = pass.layer;
  L["service.hits"] = static_cast<double>(rep.hits);
  L["service.misses"] = static_cast<double>(rep.misses);
  L["service.warm_solves"] = static_cast<double>(rep.warm_solves);
  L["service.cold_solves"] = static_cast<double>(rep.cold_solves);
  L["service.audit_fallbacks"] = static_cast<double>(rep.audit_fallbacks);
  L["service.evictions"] = static_cast<double>(rep.evictions);
  L["service.warm_bnb_nodes"] = static_cast<double>(rep.warm_bnb_nodes);
  L["service.cold_bnb_nodes"] = static_cast<double>(rep.cold_bnb_nodes);
  L["minlp.nodes"] = static_cast<double>(rep.warm_bnb_nodes + rep.cold_bnb_nodes);
  double cuts = 0.0;
  for (const auto& [req, resp] : out)
    if (!resp.cache_hit) cuts += static_cast<double>(resp.bnb_cuts);
  L["minlp.cuts"] = cuts;
  if (pass.traced) {
    pass.spans = tracer.spans();
    L["service.batch_s"] = total_seconds(pass.spans, "service.run_script");
  }
  return pass;
}

/// DLB baseline of every request's system, on the same machine and noise
/// draws the service executes with: the service reports only the HSLB run.
std::vector<double> service_dlb_totals(const Script& script, std::size_t n) {
  std::vector<double> dlb(n);
  std::map<std::pair<std::pair<long long, std::uint64_t>, long long>, double> memo;
  const hslb::fmo::CostModel cost;
  for (const auto& batch : script) {
    for (const auto& r : batch) {
      const auto& q = r.request;
      const auto key = std::make_pair(std::make_pair(q.fragments, q.system_seed),
                                      q.budget);
      auto it = memo.find(key);
      if (it == memo.end()) {
        const auto sys = hslb::fmo::make_system(
            q.family, static_cast<std::size_t>(q.fragments), q.system_seed);
        const auto res = hslb::fmo::run_dlb(
            sys, cost,
            hslb::fmo::GroupLayout::uniform(q.budget, sys.num_fragments()),
            hslb::fmo::RunOptions{});
        it = memo.emplace(key, res.scc_seconds).first;
      }
      dlb[static_cast<std::size_t>(r.id)] = it->second;
    }
  }
  return dlb;
}

// -- the timed loop --------------------------------------------------------------

struct Workload {
  std::size_t threads = 0;  ///< worker threads of the timed passes
  std::function<void(Tracer&)> setup;  ///< one set-up (repeated, timed)
  std::function<Pass(std::size_t threads, Tracer&)> pass;
  std::size_t min_latency_samples = 0;
  std::size_t tail_min_beyond = 0;  ///< samples required beyond p90
};

// setup_s is the median of kSetupSamples samples. One set-up takes 10 us to
// 1 ms, too short to time alone against clock and scheduler jitter, so a
// sample repeats set-ups until it has lasted kSetupSampleSeconds and
// reports the mean per set-up.
constexpr int kSetupSamples = 25;
constexpr double kSetupSampleSeconds = 0.02;
// Stop extending a run for samples past this point, so a run stays well
// inside its 180-second limit on a slow machine.
constexpr double kHardStopSeconds = 140.0;

void record_failures(RunResult& out, const Pass& p) {
  out.attempted += p.items;
  out.failed += p.failed_items;
  for (const auto& f : p.failures) out.failures.push_back(f);
}

/// Hash of the deterministic outputs as a multiset (sorted lines), so runs
/// with different seeds, which only reorder the same inputs, compare equal.
std::string digest_of(std::vector<std::string> det) {
  std::sort(det.begin(), det.end());
  hslb::hash::Fnv1a h;
  for (const auto& line : det) h.mix(std::string_view(line));
  return fmt("%016llx", static_cast<unsigned long long>(h.value()));
}

/// Runs the timed set-ups, a 1-thread reference pass, then passes on
/// `w.threads` threads that fit in `seconds`. Every pass must reproduce the
/// reference's deterministic outputs exactly. Traced runs alternate
/// untraced and traced passes.
struct Timed {
  std::vector<double> setups;
  std::vector<double> make_sums;  ///< substrates.make per set-up (traced)
  std::size_t setup_count = 0;    ///< set-ups over all samples
  Pass reference;
  std::vector<Pass> passes;
};

Timed run_timed(const Workload& w, const RunConfig& cfg, RunResult& out,
                Clock::time_point process_start) {
  Timed t;
  for (int i = 0; i < kSetupSamples; ++i) {
    Tracer tracer(cfg.trace);
    const auto t0 = Clock::now();
    std::size_t n = 0;
    double elapsed = 0.0;
    do {
      w.setup(tracer);
      ++n;
      elapsed = seconds_between(t0, Clock::now());
    } while (elapsed < kSetupSampleSeconds);
    t.setups.push_back(elapsed / static_cast<double>(n));
    t.make_sums.push_back(total_seconds(tracer.spans(), "substrates.make") /
                          static_cast<double>(n));
    t.setup_count += n;
  }

  Tracer off(false);
  t.reference = w.pass(1, off);
  record_failures(out, t.reference);

  std::size_t samples = 0, traced = 0, untraced = 0;
  std::vector<double> walls = {t.reference.wall};
  for (std::size_t i = 0;; ++i) {
    // Start a pass only when it is expected to end within the run length,
    // counted from process start.
    const double elapsed = seconds_between(process_start, Clock::now());
    const bool enough_time = elapsed + median(walls) > cfg.seconds;
    const bool enough_samples = cfg.trace || samples >= w.min_latency_samples;
    const bool have_passes = untraced > 0 && (!cfg.trace || traced > 0);
    if (enough_time && enough_samples && have_passes) break;
    if (seconds_between(process_start, Clock::now()) > kHardStopSeconds) break;
    const bool trace_this = cfg.trace && i % 2 == 1;
    Tracer tracer(trace_this);
    Pass p = w.pass(w.threads, tracer);
    record_failures(out, p);
    for (std::size_t k = 0; k < p.det.size(); ++k) {
      if (p.det[k] != t.reference.det[k]) {
        ++out.failed;
        out.failures.push_back(fmt("pass %zu item %zu differs from the "
                                   "1-thread reference:\n  ref:  ",
                                   i, k) +
                               t.reference.det[k] + "\n  this: " + p.det[k]);
      }
    }
    if (trace_this) {
      ++traced;
      const std::string bad = nesting_violation(p.spans);
      if (!bad.empty()) out.failures.push_back("span nesting: " + bad);
    } else {
      ++untraced;
      samples += p.latencies.size();
    }
    if (i == 0) walls.clear();
    walls.push_back(p.wall);
    t.passes.push_back(std::move(p));
  }
  std::string line = "pass walls (s):";
  for (const auto& p : t.passes)
    line += fmt(p.traced ? " %.4f(traced)" : " %.4f", p.wall);
  out.info.push_back(line);
  out.digest = digest_of(t.reference.det);
  return t;
}

std::vector<double> collect(const std::vector<Pass>& passes, bool traced,
                            const std::function<double(const Pass&)>& f) {
  std::vector<double> v;
  for (const auto& p : passes)
    if (p.traced == traced) v.push_back(f(p));
  return v;
}

void end_to_end_metrics(const Workload& w, const Timed& t,
                        const std::vector<double>& speedups,
                        RunResult& out) {
  auto& M = out.metrics;
  const auto walls = collect(t.passes, false, [](const Pass& p) { return p.wall; });
  const auto allocs = collect(t.passes, false, [](const Pass& p) { return p.alloc; });
  const auto rates = collect(t.passes, false, [](const Pass& p) {
    return static_cast<double>(p.items) / p.wall;
  });
  std::vector<double> lat;
  for (const auto& p : t.passes)
    if (!p.traced) lat.insert(lat.end(), p.latencies.begin(), p.latencies.end());

  M.push_back({"setup_s", median(t.setups), "s", t.setups.size(),
               fmt("median of samples, each the mean of the set-ups in "
                   "%.0f ms (%zu set-ups in all)",
                   kSetupSampleSeconds * 1e3, t.setup_count)});
  M.push_back({"wall_s", median(walls), "s", walls.size(), "median of passes"});
  M.push_back({"alloc_s", median(allocs), "s", allocs.size(),
               "median of passes"});
  M.push_back({"req_per_s", median(rates), "1/s", rates.size(),
               "median of passes"});
  const auto p50 = nearest_rank(lat, 0.5, 0);
  M.push_back({"latency_p50_s", p50 ? p50->value : 0.0, "s", lat.size(),
               "nearest rank"});
  const auto p90 = nearest_rank(lat, 0.9, w.tail_min_beyond);
  if (!p90) {
    out.failures.push_back(fmt("latency_p90_s: %zu samples leave fewer than %zu "
                               "beyond the 90th percentile",
                               lat.size(), w.tail_min_beyond));
  }
  M.push_back({"latency_p90_s", p90 ? p90->value : 0.0, "s", lat.size(),
               fmt("nearest rank, %zu samples beyond", p90 ? p90->beyond : 0)});
  const auto& ref = t.reference;
  M.push_back({"sim_makespan_s", mean(ref.makespans), "sim_s",
               ref.makespans.size(), "deterministic"});
  M.push_back({"speedup_vs_dlb", geomean(speedups), "ratio", speedups.size(),
               "deterministic"});
  M.push_back({"pred_error", mean(ref.pred_errors), "ratio",
               ref.pred_errors.size(), "deterministic"});
  M.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 1, "whole process"});
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median over traced passes of a per-layer span sum; counts repeat
/// exactly, so they come from the reference.
void per_layer_metrics(const Timed& t, RunResult& out) {
  const auto& ref = t.reference.layer;
  auto count = [&](const std::string& k) {
    const auto it = ref.find(k);
    return it == ref.end() ? 0.0 : it->second;
  };
  auto timed = [&](const std::string& k) {
    return median(collect(t.passes, true, [&](const Pass& p) {
      const auto it = p.layer.find(k);
      return it == p.layer.end() ? 0.0 : it->second;
    }));
  };
  const std::size_t traced =
      collect(t.passes, true, [](const Pass&) { return 0.0; }).size();
  auto& M = out.metrics;
  auto time_metric = [&](const std::string& name) {
    M.push_back({name, timed(name), "s", traced, "median of traced passes"});
  };
  auto count_metric = [&](const std::string& name, const std::string& key) {
    M.push_back({name, count(key), "count", 1, "deterministic"});
  };

  time_metric("minlp.solve_s");
  for (const char* k : {"minlp.nodes", "minlp.cuts", "minlp.waves",
                        "minlp.cuts_retired", "minlp.nodes_pruned_pre_lp"})
    count_metric(k, k);
  M.push_back({"minlp.s_per_node",
               ratio(timed("minlp.solve_s"), count("minlp.nodes")), "s", traced,
               "solve_s / nodes"});

  for (const char* k : {"lp.solves", "lp.pivots", "lp.refactorizations",
                        "lp.ft_updates", "lp.phase1_pivots", "lp.dual_pivots",
                        "lp.presolve_rows_removed"})
    count_metric(k, k);
  const double solves = count("lp.solves");
  M.push_back({"lp.warm_share", ratio(count("lp.warm_solves"), solves), "ratio",
               1, "warm solves / solves"});
  M.push_back({"lp.pivots_per_solve", ratio(count("lp.pivots"), solves),
               "count", 1, "pivots / solves"});
  M.push_back({"lp.refactor_per_solve",
               ratio(count("lp.refactorizations"), solves), "count", 1,
               "refactorizations / solves"});
  M.push_back({"lp.flop_reduction", ratio(count("lp.flop_weighted"), solves),
               "ratio", 1, "LP-solve-weighted mean of dense/sparse kernel work"});

  time_metric("perf.fit_s");
  count_metric("perf.fit_tasks", "perf.fit_tasks");

  time_metric("hslb.controller.self_s");
  time_metric("hslb.controller.resolve_s");
  time_metric("hslb.controller.apply_s");
  count_metric("hslb.controller.epochs", "hslb.controller.epochs");
  count_metric("hslb.controller.rebalances", "hslb.controller.rebalances");

  time_metric("sim.execute_s");
  count_metric("sim.events", "sim.events");
  M.push_back({"sim.events_per_s",
               ratio(count("sim.events"), timed("sim.execute_s")), "1/s",
               traced, "events / execute_s"});

  count_metric("hslb.gather.probes", "hslb.gather.probes");
  time_metric("hslb.gather.probe_busy_s");

  M.push_back({"substrates.make_s", median(t.make_sums), "s",
               t.make_sums.size(), "per set-up, median as setup_s"});

  time_metric("service.batch_s");
  for (const char* k : {"service.hits", "service.misses", "service.warm_solves",
                        "service.cold_solves", "service.audit_fallbacks",
                        "service.evictions"})
    count_metric(k, k);
  const double requests =
      count("service.hits") + count("service.misses");
  M.push_back({"service.hit_rate", ratio(count("service.hits"), requests),
               "ratio", 1, "hits / requests"});
  M.push_back({"service.warm_share",
               ratio(count("service.warm_solves"), count("service.misses")),
               "ratio", 1, "warm solves / misses"});
  M.push_back({"service.warm_nodes_per_solve",
               ratio(count("service.warm_bnb_nodes"),
                     count("service.warm_solves")),
               "count", 1, "B&B nodes / warm solve"});
  M.push_back({"service.cold_nodes_per_solve",
               ratio(count("service.cold_bnb_nodes"),
                     count("service.cold_solves")),
               "count", 1, "B&B nodes / cold solve"});

  const auto traced_walls = collect(t.passes, true, [](const Pass& p) { return p.wall; });
  const auto walls = collect(t.passes, false, [](const Pass& p) { return p.wall; });
  M.push_back({"trace.overhead_s", median(traced_walls) - median(walls), "s",
               traced_walls.size() + walls.size(),
               "traced wall_s - untraced wall_s"});
}

}  // namespace

// -- public API ----------------------------------------------------------------

std::vector<Scenario> fmo_minlp_scenarios(std::uint64_t seed) {
  return drawn(kMinlpCatalogue, seed);
}

std::vector<Scenario> fmo_adaptive_scenarios(std::uint64_t seed) {
  return drawn(kAdaptiveCatalogue, seed);
}

Script service_script(std::uint64_t seed) {
  // Families are assigned to systems in a seeded order. Family f sends its
  // fresh request in batch f/2, its two budget neighbours one batch later
  // (so the fresh solve is cached and seeds them) and its exact repeat
  // two batches later: per batch two fresh, four neighbours, two repeats.
  auto systems = kServiceFamilies;
  shuffle(systems, seed);
  const int families = static_cast<int>(systems.size());
  const int batches = families / 2 + 2;
  std::vector<std::vector<std::pair<int, Slot>>> layout(
      static_cast<std::size_t>(batches));
  for (int f = 0; f < families; ++f) {
    const auto b = static_cast<std::size_t>(f / 2);
    layout[b].emplace_back(f, Slot::Fresh);
    layout[b + 1].emplace_back(f, Slot::Neighbour);
    layout[b + 1].emplace_back(f, Slot::Neighbour);
    layout[b + 2].emplace_back(f, Slot::Repeat);
  }
  Script script;
  int id = 0;
  std::vector<int> neighbours_sent(static_cast<std::size_t>(families), 0);
  for (auto& batch : layout) {
    // Within a batch, fresh requests come first, then neighbours, then
    // repeats, each group in seeded order. Donors are read at batch start,
    // so the order never changes which request hits, warms or solves cold;
    // but the pool hands out misses in order, and with the two cold solves
    // first they start on the two workers. In shuffled order a pass's wall
    // time varied by about 15% with the worker assignment.
    shuffle(batch, seed ^ static_cast<std::uint64_t>(id + 1));
    std::stable_sort(batch.begin(), batch.end(),
                     [](const auto& a, const auto& b) { return a.second < b.second; });
    std::vector<StreamRequest> out;
    for (const auto& [f, slot] : batch) {
      const auto& [fragments, system_seed] = systems[static_cast<std::size_t>(f)];
      hslb::service::Request r;
      r.kind = hslb::service::RequestKind::Fmo;
      r.objective = hslb::Objective::MinMax;
      r.family = "water";
      r.fragments = fragments;
      r.system_seed = system_seed;
      r.budget = kNodesPerFragment * fragments;
      if (slot == Slot::Neighbour)
        r.budget += kNeighbourStep * ++neighbours_sent[static_cast<std::size_t>(f)];
      out.push_back({id++, f, slot, std::move(r)});
    }
    script.push_back(std::move(out));
  }
  return script;
}

std::string Shares::str() const {
  return fmt("repeat %.3f (intended %.3f), warm %.3f (intended %.3f), "
             "cold %.3f (intended %.3f)",
             repeat, intended_repeat, warm, intended_warm, cold, intended_cold);
}

Shares stream_shares(const Script& script,
                     const hslb::service::ServiceReport& report) {
  Shares s;
  double n = 0.0;
  for (const auto& batch : script) {
    for (const auto& r : batch) {
      n += 1.0;
      if (r.slot == Slot::Repeat) s.intended_repeat += 1.0;
      if (r.slot == Slot::Neighbour) s.intended_warm += 1.0;
      if (r.slot == Slot::Fresh) s.intended_cold += 1.0;
    }
  }
  if (n == 0.0) return s;
  s.intended_repeat /= n;
  s.intended_warm /= n;
  s.intended_cold /= n;
  s.repeat = static_cast<double>(report.hits) / n;
  s.warm = static_cast<double>(report.warm_solves) / n;
  s.cold = static_cast<double>(report.cold_solves) / n;
  return s;
}

RunResult run_workload(const RunConfig& cfg) {
  const auto process_start = Clock::now();
  RunResult out;
  Workload w;
  std::vector<double> speedups;

  if (cfg.workload == "fmo_minlp" || cfg.workload == "fmo_adaptive") {
    const bool minlp = cfg.workload == "fmo_minlp";
    auto inputs = std::make_shared<PipelineInputs>();
    w.threads = kPipelineThreads;
    w.setup = [=](Tracer& tracer) {
      *inputs = pipeline_inputs(minlp, cfg.seed, tracer);
    };
    w.pass = [=](std::size_t threads, Tracer& tracer) {
      return pipeline_pass(minlp, *inputs, threads, tracer);
    };
    const Timed t = run_timed(w, cfg, out, process_start);
    speedups = t.reference.speedups;
    // ScenarioSpec carries no solver thread count, so every B&B solve
    // runs on BnbOptions' default.
    out.info.push_back(fmt("threads: pipeline %zu, solver %zu (reference pass: "
                           "pipeline 1)",
                           kPipelineThreads,
                           hslb::minlp::BnbOptions{}.solver_threads));
    if (cfg.trace) per_layer_metrics(t, out);
    else end_to_end_metrics(w, t, speedups, out);
    if (cfg.trace && t.passes.size() > 1) out.spans = t.passes[1].spans;
  } else if (cfg.workload == "service_stream") {
    auto inputs = std::make_shared<ServiceInputs>();
    auto report = std::make_shared<hslb::service::ServiceReport>();
    w.threads = kServiceThreads;
    w.setup = [=](Tracer&) { *inputs = service_inputs(cfg.seed); };
    w.pass = [=](std::size_t threads, Tracer& tracer) {
      return service_pass(*inputs, threads, tracer, report.get());
    };
    // Enough requests that the 90th percentile has ten samples beyond it.
    w.min_latency_samples = 110;
    w.tail_min_beyond = 10;
    const Timed t = run_timed(w, cfg, out, process_start);
    const auto dlb = service_dlb_totals(inputs->script, inputs->requests);
    for (std::size_t i = 0; i < dlb.size(); ++i)
      speedups.push_back(dlb[i] / t.reference.makespans[i]);
    out.info.push_back(fmt("threads: service %zu, batch %zu, one batch in "
                           "flight (reference pass: service 1)",
                           kServiceThreads, kServiceBatch));
    out.info.push_back("shares: " + stream_shares(inputs->script, *report).str());
    std::string classes = "hit/warm/cold sequence:";
    for (const auto& line : t.reference.det) classes += " " + line.substr(0, 1);
    out.info.push_back(classes);
    if (cfg.trace) per_layer_metrics(t, out);
    else end_to_end_metrics(w, t, speedups, out);
    if (cfg.trace && t.passes.size() > 1) out.spans = t.passes[1].spans;
  } else {
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  }
  for (const auto& m : out.metrics)
    if (!std::isfinite(m.value))
      out.failures.push_back("metric " + m.name + " is not finite");
  return out;
}

}  // namespace perfbench
