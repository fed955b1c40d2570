// attackbench — the attack-job benchmark binary.
//
//   attackbench --workload <mega_static|lock_matrix|service_mix> --seed <n>
//               --seconds <s> --trace <0|1> [--trace-out <file>]
//               [--print-verdicts]
//
// Pins every library knob read from the environment, prints the effective
// values, the active simulation ISA tier and the build type, runs the
// workload, and prints report lines followed by one JSON object on the last
// line: {"correct", "attempted", "failed", "end_to_end", "per_layer",
// "failures"}. run.py turns that into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "service/protocol.hpp"
#include "sim/kernels.hpp"
#include "util/cpu.hpp"
#include "workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ATTACKBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ATTACKBENCH_SANITIZED 1
#endif
#endif

#ifndef ATTACKBENCH_BUILD_TYPE
#define ATTACKBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using cl::service::Json;

/// Every CUTELOCK_* knob the library reads, at a fixed value: the
/// single-solver, hint-free, bank-off configuration the stable-mode tables
/// use, with deterministic budgets instead of wall deadlines. Set before
/// the first library call, and inherited by the spawned daemon.
constexpr const char* kPinnedEnv[][2] = {
    {"CUTELOCK_JOBS", "1"},
    {"CUTELOCK_SAT_PORTFOLIO", "1"},
    {"CUTELOCK_SAT_SHARE", "1"},
    {"CUTELOCK_SAT_PREPROCESS", "0"},
    {"CUTELOCK_SAT_GC_FRAC", "0.25"},
    {"CUTELOCK_KEY_HINTS", "0"},
    {"CUTELOCK_OBS_BANK", "0"},
    {"CUTELOCK_OBS_BANK_PATH", ""},
    {"CUTELOCK_SIM_ISA", "avx2"},
    {"CUTELOCK_SIM_LANES", "1"},
    {"CUTELOCK_SIM_SHARD_THRESHOLD", "250000"},
    {"CUTELOCK_ATTACK_SECONDS", "3600"},
    {"CUTELOCK_BENCH_STABLE", "1"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "attackbench: %s\nusage: attackbench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--print-verdicts]\n",
               why);
  return 64;
}

Json metrics_json(const std::vector<attackbench::Metric>& metrics) {
  Json out = Json::object();
  for (const attackbench::Metric& m : metrics) {
    Json entry = Json::object();
    entry.set("value", Json::number(m.value));
    entry.set("unit", Json::string(m.unit));
    out.set(m.name, std::move(entry));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef ATTACKBENCH_SANITIZED
  std::fprintf(stderr, "attackbench: refusing to report from a sanitizer build\n");
  return 3;
#endif
  attackbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  bool print_verdicts = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-verdicts") {
      print_verdicts = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  for (const auto& [name, value] : kPinnedEnv) {
    setenv(name, value, 1);
    std::printf("env %s=%s\n", name, value);
  }
  std::printf("sim isa: %s (best on this cpu: %s)\n",
              cl::util::sim_isa_name(cl::sim::kernels::active_isa()),
              cl::util::sim_isa_name(cl::util::best_cpu_sim_isa()));
  std::printf("build type: %s\n", ATTACKBENCH_BUILD_TYPE);
  std::printf("workload %s, seed %llu, %.3f s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  attackbench::RunReport report;
  try {
    report = attackbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "attackbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  for (const std::string& line : report.failures) {
    std::printf("FAILED %s\n", line.c_str());
  }
  if (print_verdicts) {
    for (const std::string& row : report.verdicts) {
      std::printf("verdict %s\n", row.c_str());
    }
  }
  Json failures = Json::array();
  for (const std::string& line : report.failures) failures.push_back(Json::string(line));
  Json result = Json::object();
  result.set("correct", Json::boolean(report.failed == 0 && report.attempted > 0));
  result.set("attempted", Json::number(static_cast<std::uint64_t>(report.attempted)));
  result.set("failed", Json::number(static_cast<std::uint64_t>(report.failed)));
  result.set("end_to_end", metrics_json(report.end_to_end));
  result.set("per_layer", metrics_json(report.per_layer));
  result.set("failures", std::move(failures));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
