#include "nlsq/multistart.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace hslb::nlsq {

MultistartResult minimize_multistart(const Problem& problem,
                                     std::span<const double> start_lower,
                                     std::span<const double> start_upper,
                                     const MultistartOptions& options) {
  HSLB_EXPECTS(start_lower.size() == problem.num_params);
  HSLB_EXPECTS(start_upper.size() == problem.num_params);
  for (std::size_t i = 0; i < problem.num_params; ++i) {
    HSLB_EXPECTS(std::isfinite(start_lower[i]) && std::isfinite(start_upper[i]));
    HSLB_EXPECTS(start_lower[i] <= start_upper[i]);
  }

  Rng rng(options.seed);
  MultistartResult out;
  out.local_costs.reserve(options.num_starts);
  bool have_best = false;

  // One workspace for every start: only the first run shapes it.
  LevMarWorkspace ws;
  auto try_start = [&](const linalg::Vector& start) {
    const auto res = minimize(problem, start, options.levmar, ws);
    ++out.starts_tried;
    if (res.converged) ++out.starts_converged;
    out.local_costs.push_back(res.cost);
    if (!have_best || res.cost < out.best.cost) {
      out.best = res;
      have_best = true;
    }
  };

  // Deterministic first start: box midpoint (geometric mean when the box is
  // strictly positive, which suits the time-scale parameters a, b, d).
  linalg::Vector mid(problem.num_params);
  for (std::size_t i = 0; i < problem.num_params; ++i) {
    if (start_lower[i] > 0.0) {
      mid[i] = std::sqrt(start_lower[i] * start_upper[i]);
    } else {
      mid[i] = 0.5 * (start_lower[i] + start_upper[i]);
    }
  }
  try_start(mid);

  linalg::Vector start(problem.num_params);
  for (std::size_t s = 1; s < options.num_starts; ++s) {
    for (std::size_t i = 0; i < problem.num_params; ++i) {
      if (start_lower[i] > 0.0) {
        // Log-uniform across positive scales.
        const double lo = std::log(start_lower[i]);
        const double hi = std::log(start_upper[i]);
        start[i] = std::exp(rng.uniform(lo, hi));
      } else {
        start[i] = rng.uniform(start_lower[i], start_upper[i]);
      }
    }
    try_start(start);
  }

  HSLB_ENSURES(have_best);
  return out;
}

}  // namespace hslb::nlsq
