// Shared helpers for the table/figure harnesses (the cutelock_bench
// library).
//
// Every harness honours:
//   CUTELOCK_ATTACK_SECONDS  per-attack wall-clock budget (strict double;
//                            trailing junk is rejected with a warning)
//   CUTELOCK_BENCH_SMALL=1   restrict suites to their small members
//   CUTELOCK_JOBS            worker threads for the bench::Runner (default:
//                            hardware_concurrency)
//   CUTELOCK_BENCH_STABLE=1  omit wall-clock durations from table cells so
//                            the rendered table is byte-identical across
//                            runs and thread counts (also turns SAT
//                            preprocessing and key hints off)
//
// Full reference: docs/benchmarks.md.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "attack/result.hpp"
#include "benchgen/catalog.hpp"
#include "benchgen/fsm_suite.hpp"

namespace cl::bench {

/// CUTELOCK_ATTACK_SECONDS, or `fallback` when unset/invalid. Invalid values
/// (trailing junk, non-numeric, <= 0) warn on stderr once per call.
double attack_seconds(double fallback);

/// CUTELOCK_BENCH_SMALL=1: smoke-run profile.
bool small_run();

/// CUTELOCK_BENCH_STABLE=1: deterministic table cells (outcome only).
bool stable_cells();

/// Worker count for the Runner: CUTELOCK_JOBS, or hardware_concurrency when
/// unset. Invalid values warn on stderr and fall back; the result is >= 1.
std::size_t jobs_from_env();

/// BENCH_*.json emission toggle (CUTELOCK_BENCH_JSON=0 disables) and
/// directory (CUTELOCK_BENCH_JSON_DIR, default cwd) — shared by the Runner
/// and bench_micro_perf.
bool json_enabled();
std::string json_dir();

attack::AttackBudget table_budget(double seconds);

/// "outcome (time)" cell in the paper's style; outcome only under
/// CUTELOCK_BENCH_STABLE=1.
std::string attack_cell(const attack::AttackResult& r);

/// A bare duration cell, "-" under CUTELOCK_BENCH_STABLE=1.
std::string time_cell(double seconds);

/// The suite members selected for this run: everything, or only members at
/// or below the small-profile gate cutoff (1200) when CUTELOCK_BENCH_SMALL=1.
/// This retires the per-harness copy-pasted gate-count filters.
std::vector<benchgen::CircuitSpec> selected_circuits(
    const std::vector<benchgen::CircuitSpec>& suite);

/// Same for FSM suites: small profile keeps the "small" tier only.
std::vector<benchgen::FsmSpec> selected_fsms(
    const std::vector<benchgen::FsmSpec>& suite);

}  // namespace cl::bench
