// The benchmark's three workloads. Each runs a closed loop of attack jobs
// from one process and reports its end-to-end numbers; with tracing on it
// also records spans around every public library call and reports the
// per-layer split.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace attackbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_path;  // span dump of the traced run ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // one line per failed job (capped)
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;      // traced run only
  std::vector<std::string> notes;     // human-readable report lines
  std::set<std::string> verdicts;     // "<cell> <outcome> <any_key_pass>"
};

/// The seed whose verdicts the expected-verdict table records.
constexpr std::uint64_t kDefaultSeed = 1;

/// Run one workload. Throws std::runtime_error on set-up failure.
RunReport run_workload(const RunOptions& options);

}  // namespace attackbench
