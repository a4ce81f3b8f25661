// perfbench runner: runs one workload, checks its outputs and prints every
// metric. perfbench/run.py builds this binary and calls it; see
// perfbench/README.md.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--out DIR] [--git-sha SHA] [--source-digest HEX]
//
// stdout: an environment block, one line per metric (value, unit, sample
// count), then the result as a single JSON object on the last line. The
// same result, with the environment block and (traced runs) the spans, is
// written to DIR/<workload>-seed<N>-trace<0|1>.json. Exit code 1 when any
// check failed.
#include <sys/personality.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RunConfig;
using perfbench::RunResult;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

struct Args {
  RunConfig config;
  std::string out_dir;
  std::map<std::string, std::string> env;
};

Args parse(int argc, char** argv) {
  Args a;
  a.env["git_sha"] = "unknown";
  a.env["source_digest"] = "unknown";
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.config.workload = val;
      have[0] = true;
    } else if (key == "--seed") {
      a.config.seed = std::stoull(val);
      have[1] = true;
    } else if (key == "--seconds") {
      a.config.seconds = std::stod(val);
      if (!(a.config.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
      have[2] = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.config.trace = val == "1";
      have[3] = true;
    } else if (key == "--out") {
      a.out_dir = val;
    } else if (key == "--git-sha") {
      a.env["git_sha"] = val;
    } else if (key == "--source-digest") {
      a.env["source_digest"] = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  for (bool h : have)
    if (!h)
      throw std::invalid_argument(
          "usage: perfbench_runner --workload NAME --seed N --seconds S "
          "--trace 0|1 [--out DIR] [--git-sha SHA] [--source-digest HEX]");
  a.env["cpu"] = cpu_model();
  a.env["nproc"] = std::to_string(std::thread::hardware_concurrency());
  a.env["compiler"] = PERFBENCH_COMPILER;
  a.env["flags"] = PERFBENCH_FLAGS;
  a.env["build_type"] = PERFBENCH_BUILD_TYPE;
  const int persona = personality(0xffffffff);
  a.env["aslr"] = persona != -1 && (persona & ADDR_NO_RANDOMIZE) ? "off" : "on";
  return a;
}

std::string result_line(const RunResult& r) {
  std::ostringstream s;
  // A run-level failure (say, a span nesting violation) fails at least one
  // attempt; item failures never exceed the attempts.
  const std::size_t failed =
      r.correct() ? 0 : std::clamp<std::size_t>(r.failed, 1, r.attempted);
  s << "{\"correct\": " << (r.correct() ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : r.metrics) {
    s << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
      << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  s << "}}";
  return s.str();
}

void write_file(const Args& a, const RunResult& r) {
  if (a.out_dir.empty()) return;
  const auto& c = a.config;
  const std::string path = a.out_dir + "/" + c.workload + "-seed" +
                           std::to_string(c.seed) + "-trace" +
                           (c.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << "{\n  \"workload\": \"" << c.workload << "\",\n  \"seed\": " << c.seed
      << ",\n  \"seconds\": " << num(c.seconds)
      << ",\n  \"trace\": " << (c.trace ? 1 : 0) << ",\n  \"environment\": {";
  bool first = true;
  for (const auto& [k, v] : a.env) {
    out << (first ? "" : ", ") << "\"" << k << "\": \"" << json_escape(v)
        << "\"";
    first = false;
  }
  out << "},\n  \"info\": [";
  first = true;
  for (const auto& line : r.info) {
    out << (first ? "" : ", ") << "\"" << json_escape(line) << "\"";
    first = false;
  }
  out << "],\n  \"digest\": \"" << r.digest << "\",\n  \"correct\": "
      << (r.correct() ? "true" : "false") << ",\n  \"attempted\": "
      << r.attempted << ",\n  \"failed\": " << r.failed
      << ",\n  \"failures\": [";
  first = true;
  for (const auto& f : r.failures) {
    out << (first ? "" : ", ") << "\"" << json_escape(f) << "\"";
    first = false;
  }
  out << "],\n  \"metrics\": {";
  first = true;
  for (const auto& m : r.metrics) {
    out << (first ? "\n" : ",\n") << "    \"" << m.name
        << "\": {\"value\": " << num(m.value) << ", \"unit\": \"" << m.unit
        << "\", \"samples\": " << m.samples << ", \"note\": \""
        << json_escape(m.note) << "\"}";
    first = false;
  }
  out << "\n  },\n  \"spans\": [";
  first = true;
  for (const auto& sp : r.spans) {
    out << (first ? "\n" : ",\n") << "    {\"name\": \"" << sp.name
        << "\", \"start\": " << num(sp.start) << ", \"end\": " << num(sp.end)
        << ", \"id\": " << sp.id << ", \"parent\": " << sp.parent
        << ", \"run\": " << sp.run << "}";
    first = false;
  }
  out << "\n  ]\n}\n";
  if (!out) std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const auto& c = args.config;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              c.workload.c_str(), static_cast<unsigned long long>(c.seed),
              c.seconds, c.trace ? 1 : 0);
  for (const auto& [k, v] : args.env)
    std::printf("# env %s: %s\n", k.c_str(), v.c_str());

  RunResult r;
  try {
    r = perfbench::run_workload(c);
  } catch (const std::exception& e) {
    r.failures.push_back(std::string("exception: ") + e.what());
    ++r.failed;
    if (r.attempted == 0) r.attempted = 1;
  }
  for (const auto& line : r.info) std::printf("# %s\n", line.c_str());
  std::printf("# digest of deterministic outputs: %s\n", r.digest.c_str());
  std::printf("# %-30s %22s  %-6s %7s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const auto& m : r.metrics)
    std::printf("# %-30s %22.9g  %-6s %7zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  std::printf("# failed_frac %.6g (%zu of %zu)\n",
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0,
              r.failed, r.attempted);
  for (const auto& f : r.failures) std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  write_file(args, r);
  std::printf("%s\n", result_line(r).c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
