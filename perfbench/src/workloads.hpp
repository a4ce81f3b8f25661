// The benchmark's workloads: input generation from the workload seed, the
// timed loop, the correctness checks and the metric definitions.
//
//   fmo_minlp       FMO water clusters through Pipeline::run with the
//                   MINLP branch-and-bound solve.
//   fmo_adaptive    FMO water under stragglers through the closed-loop
//                   hslb::Controller (greedy solve, warm refits).
//   service_stream  fmo-kind requests replayed through
//                   AllocationService::run_script, one batch in flight.
//
// See perfbench/README.md for why each was chosen and what every metric
// means.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "service/service.hpp"
#include "spans.hpp"

namespace perfbench {

/// Pipeline threads every pipeline workload uses.
inline constexpr std::size_t kPipelineThreads = 2;
/// Service worker threads and batch width.
inline constexpr std::size_t kServiceThreads = 2;
inline constexpr std::size_t kServiceBatch = 8;

/// One pipeline scenario: an FMO water cluster.
struct Scenario {
  int id = 0;  ///< catalogue index; results are aggregated in id order
  long long fragments = 0;
  std::uint64_t system_seed = 0;
  bool operator==(const Scenario&) const = default;
};

std::vector<Scenario> fmo_minlp_scenarios(std::uint64_t seed);
std::vector<Scenario> fmo_adaptive_scenarios(std::uint64_t seed);

/// Role of a request in the service stream.
enum class Slot { Fresh, Neighbour, Repeat };

struct StreamRequest {
  int id = 0;      ///< position in the stream
  int family = 0;  ///< requests of one family share a molecular system
  Slot slot = Slot::Fresh;
  hslb::service::Request request;
};

/// The request stream cut into the batches the client sends, in order.
using Script = std::vector<std::vector<StreamRequest>>;

Script service_script(std::uint64_t seed);

/// Realised share of hits, warm and cold solves in a stream next to the
/// share the script intends (repeats, neighbours, fresh systems).
struct Shares {
  double intended_repeat = 0.0, intended_warm = 0.0, intended_cold = 0.0;
  double repeat = 0.0, warm = 0.0, cold = 0.0;
  std::string str() const;
};

Shares stream_shares(const Script& script,
                     const hslb::service::ServiceReport& report);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;  ///< measurements the value summarises
  std::string note;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct RunResult {
  std::size_t attempted = 0;  ///< scenarios or requests executed
  std::size_t failed = 0;     ///< of those, how many failed a check
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::vector<std::string> info;  ///< extra report lines
  std::string digest;  ///< hash of every deterministic output of the run
  std::vector<Span> spans;
  bool correct() const { return failed == 0 && failures.empty(); }
};

RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
