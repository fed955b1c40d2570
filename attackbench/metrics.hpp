// End-to-end statistics and verdict checks of the attack-job benchmark.
//
// Everything here is a pure function of hand-checkable inputs so the
// self-test (selftest.cpp) can pin it down: percentiles with their sample
// counts, throughput, failure fraction, the expected-verdict check, and the
// judgement of one `cutelock serve` reply.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace attackbench {

/// Linear-interpolated percentile (`p` in [0, 100]) of `samples`, the
/// numpy "linear" rule: rank p/100 * (n - 1) between the sorted neighbours.
/// 0 for an empty sample.
double percentile(std::vector<double> samples, double p);

/// How many samples lie strictly above the `p`-th percentile — the count
/// that says whether a reported tail percentile rests on enough data.
std::size_t samples_above(const std::vector<double>& samples, double p);

/// Completed jobs per wall second; 0 when no time elapsed.
double jobs_per_s(std::size_t completed, double wall_s);

/// Failed over attempted; 0 when nothing was attempted.
double failed_frac(std::size_t failed, std::size_t attempted);

/// Median of a sample (percentile 50).
double median(std::vector<double> samples);

/// What one finished job reported, in the terms the verdict check reads.
struct JobVerdict {
  std::string cell;       // "<circuit>/<lock>/<attack>", the table key
  bool cute_lock = false; // Cute-Lock-Str or Cute-Lock-Beh row
  std::string outcome;    // attack::outcome_label text
  int any_key_pass = -1;  // verify_any_key under any-key acceptance; -1 = no key judged
};

/// One row of the expected-verdict table (default seed only).
struct ExpectedVerdict {
  const char* cell;
  const char* outcome;
  int any_key_pass;
};

/// Empty when the job passes, else the reason it failed. Seed-independent
/// invariants always apply: a Cute-Lock row never ends Equal, and an Equal
/// key always passes any-key acceptance. With a table (default seed) the
/// outcome and any_key_pass must match the cell's row exactly. The exact-key
/// fact is never checked: which accepting key a solver returns on a
/// multi-key lock depends on its trajectory.
std::string check_verdict(const JobVerdict& verdict,
                          const std::vector<ExpectedVerdict>* table);

/// Judge a terminal reply of the service's `wait` op for an attack job.
/// Empty on success (and *verdict filled from the result), else the reason
/// the job counts as failed: an `"ok": false` reply, a job that did not end
/// `done`, or a result without an outcome. `seconds` receives the job time
/// the server reports.
std::string judge_service_reply(const cl::service::Json& reply,
                                JobVerdict* verdict, double* seconds);

}  // namespace attackbench
