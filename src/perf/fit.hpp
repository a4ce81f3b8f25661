// The Fit step of HSLB (Table II, line 10), generalized to a sum of
// registered cost terms:
//
//   min_{p >= 0}  sum_i ( y_i - sum_k term_k(p_k, n_i) )^2
//
// solved by box-constrained Levenberg-Marquardt with multistart, with
// data-driven start boxes supplied per term. The classic spec is the single
// `powerlaw` term a/n + b*n^c + d, which delegates to perf::Model verbatim,
// so fit() is bit-identical to the pre-refactor power-law fit. By default
// the exponent c is constrained to [1, c_max] so that the fitted model is
// convex and the allocation MINLP is solved to proven global optimality
// (§III-E); the paper observed b, c "almost equal to zero" on Intrepid,
// which the convex fit reproduces with b ~ 0.
//
// Terms with zero fitted parameters (pinned analytic terms, e.g. a comm
// term with beta = 1/bandwidth from the machine spec) are subtracted from
// the data rather than optimized; a spec made only of pinned terms skips
// the optimizer entirely and just reports goodness of fit.
#pragma once

#include "perf/benchdata.hpp"
#include "perf/model.hpp"
#include "perf/terms.hpp"

namespace hslb {
class ThreadPool;
}

namespace hslb::perf {

struct FitOptions {
  std::size_t num_starts = 24;
  std::uint64_t seed = 1234;
  /// Worker threads for fit_all (per-task fits are independent; results are
  /// identical for every thread count). 0 = hardware concurrency.
  std::size_t threads = 1;
  /// Exponent bounds. Lower bound 1.0 keeps the model convex; set
  /// min_c < 1 to reproduce the paper's unconstrained-c discussion.
  double min_c = 1.0;
  double max_c = 3.0;
  /// Upper bounds as multiples of data scales (see FitScales).
  double a_scale = 50.0;
  double d_scale = 2.0;
};

struct FitResult {
  /// Power-law view of the fit: the first powerlaw term's parameters, or
  /// all zeros (with c = 1) when the spec has none. Kept so existing
  /// consumers of (a, b, c, d) — model I/O, reports, benches — read the
  /// classic fit unchanged.
  Model model;
  /// The fitted cost model: one entry per spec term with bound parameters.
  CostModel cost;
  double sse = 0.0;
  double rmse = 0.0;
  double r2 = 0.0;             ///< the paper's fit-quality criterion (§III-C)
  std::size_t starts_tried = 0;
  std::size_t starts_converged = 0;
  bool converged = false;
  /// Set by refit_cost when the warm start did not converge and the
  /// result comes from the full fit_cost multistart instead.
  bool refit_fallback = false;
};

/// Fits one component's samples against an explicit term spec. Requires
/// >= 2 distinct node counts; the paper recommends >= 4 samples ("at least
/// greater than four") — fewer is allowed but flagged by the returned
/// diagnostics (r2 of a saturated fit is trivially 1).
FitResult fit_cost(const SampleSet& samples, const CostModelSpec& spec,
                   const FitOptions& options = {});

/// Classic power-law fit: fit_cost with the single `powerlaw` term.
FitResult fit(const SampleSet& samples, const FitOptions& options = {});

/// Fits every task in a gather table, `options.threads` tasks at a time.
/// Passing an existing `pool` reuses its workers (options.threads is then
/// ignored); otherwise a transient pool is built when threads != 1.
/// A non-empty `spec` applies to every task; empty = classic power law.
std::vector<std::pair<std::string, FitResult>> fit_all(
    const BenchTable& table, const FitOptions& options = {},
    ThreadPool* pool = nullptr, const CostModelSpec& spec = {});

// ---- Incremental refit: fold epoch observations, re-fit warm ------------
//
// The closed-loop controller re-estimates models mid-run: each epoch's
// trace yields observed (task, nodes, seconds) samples, which are folded
// into the original gather table over a sliding window and re-fitted warm
// from the previous parameters.

/// One observed execution sample from an epoch trace.
struct Observed {
  std::string task;
  double nodes = 0.0;
  double seconds = 0.0;
  std::size_t epoch = 0;  ///< epoch the observation was made in
};

/// Merges one task's gather samples with its epoch observations: gather
/// samples enter at weight 1, each observation inside the window
/// [epoch + 1 - window, epoch] is replicated round(weight) times so a
/// handful of in-situ measurements can move a fit anchored by the gather
/// sweep. Observations for other tasks are ignored.
SampleSet fold_observations(const SampleSet& gathered,
                            const std::vector<Observed>& observations,
                            const std::string& task, std::size_t epoch,
                            std::size_t window, double weight);

/// Mean relative prediction error mean_i |y_i - T(n_i)| / T(n_i) of a
/// fitted model over a task's observations — the drift statistic the
/// rebalance policy thresholds on. 0 when no observation matches `task`.
double prediction_drift(const CostModel& model,
                        const std::vector<Observed>& observations,
                        const std::string& task);

/// Re-fits warm from a previous result: a single Levenberg-Marquardt run
/// started at the previous parameters (projected into the data-driven fit
/// box). When the warm descent fails to converge, falls back to the full
/// fit_cost multistart and sets `refit_fallback`. `previous.cost` must have been fitted against the
/// same spec (same terms, same parameter counts).
FitResult refit_cost(const SampleSet& samples, const CostModelSpec& spec,
                     const FitResult& previous, const FitOptions& options = {});

}  // namespace hslb::perf
