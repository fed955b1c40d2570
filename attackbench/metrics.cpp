#include "metrics.hpp"

#include <algorithm>
#include <cmath>

namespace attackbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::size_t samples_above(const std::vector<double>& samples, double p) {
  const double cut = percentile(samples, p);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double v) { return v > cut; }));
}

double jobs_per_s(std::size_t completed, double wall_s) {
  return wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0;
}

double failed_frac(std::size_t failed, std::size_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

std::string check_verdict(const JobVerdict& verdict,
                          const std::vector<ExpectedVerdict>* table) {
  if (verdict.cute_lock && verdict.outcome == "Equal") {
    return verdict.cell + ": Cute-Lock row ended Equal";
  }
  if (verdict.outcome == "Equal" && verdict.any_key_pass != 1) {
    return verdict.cell + ": Equal key fails any-key acceptance";
  }
  if (table == nullptr) return {};
  const auto row = std::find_if(
      table->begin(), table->end(),
      [&](const ExpectedVerdict& e) { return verdict.cell == e.cell; });
  if (row == table->end()) return verdict.cell + ": no expected verdict";
  if (verdict.outcome != row->outcome ||
      verdict.any_key_pass != row->any_key_pass) {
    return verdict.cell + ": got " + verdict.outcome + "/any=" +
           std::to_string(verdict.any_key_pass) + ", expected " +
           row->outcome + "/any=" + std::to_string(row->any_key_pass);
  }
  return {};
}

std::string judge_service_reply(const cl::service::Json& reply,
                                JobVerdict* verdict, double* seconds) {
  if (!reply.bool_or("ok", false)) {
    return "service error: " + reply.str_or("error", "(no diagnostic)");
  }
  const std::string status = reply.str_or("status", "");
  if (status != "done") {
    return "job ended " + status + ": " + reply.str_or("error", "");
  }
  const cl::service::Json* result = reply.find("result");
  if (result == nullptr || result->str_or("outcome", "").empty()) {
    return "done reply without an outcome";
  }
  verdict->outcome = result->str_or("outcome", "");
  const cl::service::Json* pass = result->find("any_key_pass");
  verdict->any_key_pass = pass == nullptr ? -1 : (pass->as_bool() ? 1 : 0);
  *seconds = result->num_or("seconds", 0.0);
  return {};
}

}  // namespace attackbench
