// Self-tests of the benchmark's own arithmetic and checks, on hand-made
// inputs. Run with `python3 attackbench/run.py --self-test`; exits nonzero
// on the first failed check.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"

namespace {

using namespace attackbench;
using cl::service::Json;

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

Json parse(const std::string& text) {
  Json j;
  std::string error;
  if (!Json::parse(text, &j, &error)) std::printf("bad fixture: %s\n", error.c_str());
  return j;
}

void test_percentiles() {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  check(near(percentile(ten, 50), 5.5), "p50 of 1..10 interpolates to 5.5");
  check(near(percentile(ten, 90), 9.1), "p90 of 1..10 is 9.1");
  check(near(percentile(ten, 0), 1) && near(percentile(ten, 100), 10),
        "p0/p100 are the extremes");
  check(near(percentile({4.0}, 90), 4.0), "one sample is every percentile");
  check(percentile({}, 50) == 0.0, "empty sample gives 0");
  check(samples_above(ten, 50) == 5, "five of 1..10 lie above p50");
  check(samples_above(ten, 90) == 1, "one of 1..10 lies above p90");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(samples_above(hundred, 90) == 10,
        "100 samples put ten above p90 (enough to report it)");
  check(near(median({3, 1, 2}), 2.0), "median of three");
}

void test_rates() {
  check(near(jobs_per_s(30, 12.0), 2.5), "30 jobs in 12 s is 2.5 jobs/s");
  check(jobs_per_s(5, 0.0) == 0.0, "no elapsed time gives 0 jobs/s");
  check(near(failed_frac(3, 12), 0.25), "3 of 12 failed is 0.25");
  check(failed_frac(0, 0) == 0.0, "nothing attempted gives failed_frac 0");
}

void test_verdicts() {
  const std::vector<ExpectedVerdict> table = {
      {"s27/xor/INT", "Equal", 1},
      {"s27/cl-str/KC2", "CNS", -1},
  };
  check(check_verdict({"s27/xor/INT", false, "Equal", 1}, &table).empty(),
        "matching verdict passes");
  check(check_verdict({"s27/cl-str/KC2", true, "CNS", -1}, &table).empty(),
        "matching Cute-Lock CNS passes");
  // A corrupted expected verdict must surface as a failure.
  std::vector<ExpectedVerdict> corrupted = table;
  corrupted[0].outcome = "CNS";
  check(!check_verdict({"s27/xor/INT", false, "Equal", 1}, &corrupted).empty(),
        "corrupted expected outcome fails the job");
  corrupted = table;
  corrupted[0].any_key_pass = 0;
  check(!check_verdict({"s27/xor/INT", false, "Equal", 1}, &corrupted).empty(),
        "corrupted expected any_key_pass fails the job");
  check(!check_verdict({"s27/kgate/INT", false, "Equal", 1}, &table).empty(),
        "cell missing from the table fails at the default seed");
  // Seed-independent invariants, with no table.
  check(!check_verdict({"x/cl-str/INT", true, "Equal", 1}, nullptr).empty(),
        "Cute-Lock row ending Equal fails on any seed");
  check(!check_verdict({"x/xor/INT", false, "Equal", 0}, nullptr).empty(),
        "Equal key failing any-key acceptance fails on any seed");
  check(!check_verdict({"x/xor/INT", false, "Equal", -1}, nullptr).empty(),
        "Equal key never judged fails on any seed");
  check(check_verdict({"x/xor/INT", false, "N/A", -1}, nullptr).empty(),
        "a timeout is no invariant violation");
}

void test_service_replies() {
  JobVerdict v;
  double seconds = -1.0;
  check(!judge_service_reply(parse(R"({"ok": false, "error": "busy"})"), &v,
                             &seconds)
             .empty(),
        "an \"ok\": false reply counts as failed");
  check(!judge_service_reply(parse(R"({"ok": true, "id": 3, "status": "error",
                                       "error": "lint"})"),
                             &v, &seconds)
             .empty(),
        "a job ending in error counts as failed");
  check(!judge_service_reply(parse(R"({"ok": true, "id": 3, "status": "done"})"),
                             &v, &seconds)
             .empty(),
        "a done reply without a result counts as failed");
  const std::string done = judge_service_reply(
      parse(R"({"ok": true, "id": 3, "status": "done", "result":
               {"outcome": "Equal", "seconds": 0.25, "any_key_pass": true}})"),
      &v, &seconds);
  check(done.empty() && v.outcome == "Equal" && v.any_key_pass == 1 &&
            near(seconds, 0.25),
        "a done reply yields outcome, acceptance and server seconds");
}

void test_self_time() {
  // job [0,10] with children a [1,4] and b [5,9]; b has child c [6,8].
  std::vector<Span> spans = {
      {"job", 1, -1, 0.0, 10.0},
      {"cnf.a", 1, 0, 1.0, 4.0},
      {"sat.b", 1, 0, 5.0, 9.0},
      {"cnf.c", 1, 2, 6.0, 8.0},
      {"capture", 1, -1, 10.0, 20.0},
  };
  const std::vector<double> self = self_times(spans);
  check(near(self[0], 3.0) && near(self[2], 2.0) && near(self[3], 2.0),
        "self time subtracts the covered child intervals");
  const LayerSplit split = layer_split(spans, "job");
  check(split.jobs == 1 && near(split.job_span_s, 10.0) &&
            near(split.unattributed_s, 3.0) && near(split.self_s.at("cnf"), 5.0) &&
            near(split.self_s.at("sat"), 2.0),
        "layer split attributes self time by name prefix, roots stay apart");
}

}  // namespace

int main() {
  test_percentiles();
  test_rates();
  test_verdicts();
  test_service_replies();
  test_self_time();
  std::printf("%s: %d failed check(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
