#include "workloads.hpp"

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "attack/accept.hpp"
#include "attack/bbo.hpp"
#include "attack/observation_bank.hpp"
#include "attack/oracle.hpp"
#include "attack/sat_attack.hpp"
#include "attack/seq_attack.hpp"
#include "attack/verify.hpp"
#include "bench_common.hpp"
#include "benchgen/catalog.hpp"
#include "benchgen/fsm_suite.hpp"
#include "cnf/miter.hpp"
#include "core/cute_lock_beh.hpp"
#include "core/cute_lock_str.hpp"
#include "fsm/synth.hpp"
#include "lock/lock_registry.hpp"
#include "metrics.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/transform.hpp"
#include "sat/solver.hpp"
#include "service/client.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace attackbench {

const std::vector<ExpectedVerdict>& expected_verdicts();  // expected.cpp

namespace {

using namespace cl;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seed-derived 64-bit choice for a named decision: every circuit, lock and
/// random-sequence choice of the benchmark goes through here.
std::uint64_t mix(std::uint64_t seed, const std::string& tag) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ (seed * 0x9e3779b97f4a7c15ULL);
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The table harnesses' budget. Under the pinned CUTELOCK_BENCH_STABLE=1 no
/// wall deadline decides a job: only iteration, depth and conflict budgets
/// do, and no portfolio races.
attack::AttackBudget table_budget() { return bench::table_budget(1e9); }

/// The benchmark's budget for the mega circuit: table_budget with the
/// iteration, depth and conflict caps bench/table_mega.cpp applies (a couple
/// of shallow frames, a handful of DIS rounds). The caps are the
/// benchmark's own; a change to that harness does not move them.
attack::AttackBudget mega_budget() {
  attack::AttackBudget b = table_budget();
  b.max_iterations = 6;
  b.max_depth = 4;
  b.conflict_budget = 200'000;
  return b;
}

const std::vector<ExpectedVerdict>* table_for(std::uint64_t seed) {
  return seed == kDefaultSeed ? &expected_verdicts() : nullptr;
}

struct Tally {
  std::vector<double> latencies;  // seconds, jobs that ran to a verdict
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void add(double latency, const std::string& failure) {
    ++attempted;
    if (latency >= 0.0) latencies.push_back(latency);
    if (failure.empty()) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(failure);
  }
};

/// The end-to-end metrics every workload reports, plus the failure
/// fraction and sample counts as report lines. `setup_s` is the fastest of
/// the repeated set-ups: set-up is deterministic work, and on a shared host
/// a burst of interference can cover a whole set-up window and move its
/// median, but hardly its minimum.
void report_end_to_end(const Tally& tally, double wall_s,
                       const std::vector<double>& setups, double rss_mb,
                       RunReport* out) {
  out->attempted = tally.attempted;
  out->failed = tally.failed;
  out->failures = tally.failures;
  const std::size_t done = tally.attempted - tally.failed;
  const double fastest = *std::min_element(setups.begin(), setups.end());
  out->end_to_end = {
      {"jobs_per_s", jobs_per_s(done, wall_s), "1/s"},
      {"job_p50_s", percentile(tally.latencies, 50.0), "s"},
      {"job_p90_s", percentile(tally.latencies, 90.0), "s"},
      {"setup_s", fastest, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  char line[256];
  std::snprintf(line, sizeof line,
                "setup: %zu set-ups, fastest %.6f s, median %.6f s",
                setups.size(), fastest, median(setups));
  out->notes.push_back(line);
  std::snprintf(line, sizeof line,
                "jobs: %zu attempted, %zu failed, failed_frac %.4f (fraction) "
                "over %.3f s",
                tally.attempted, tally.failed,
                failed_frac(tally.failed, tally.attempted), wall_s);
  out->notes.push_back(line);
  std::snprintf(line, sizeof line,
                "latency samples: job_p50_s n=%zu (%zu above), job_p90_s "
                "n=%zu (%zu above)",
                tally.latencies.size(), samples_above(tally.latencies, 50.0),
                tally.latencies.size(), samples_above(tally.latencies, 90.0));
  out->notes.push_back(line);
}

// ---------------------------------------------------------------------------
// In-process workloads: mega_static and lock_matrix.

struct Job {
  std::string cell;     // "<circuit>/<lock>/<attack>": the verdict-table key
  std::string attack;   // INT | KC2 | RANE | SAT | BBO
  bool cute_lock = false;
  bool dynamic_key = false;  // no static ground truth: key not judged
  const netlist::Netlist* locked = nullptr;  // the attack's view
  const netlist::Netlist* seq_locked = nullptr;    // sequential views,
  const netlist::Netlist* seq_original = nullptr;  // judged by acceptance
  const sim::BitVec* true_key = nullptr;
  const attack::SequentialOracle* oracle = nullptr;
  attack::AttackBudget budget;
  std::uint64_t seed = 0;  // the job's random-sequence choices
};

/// Every object a suite's jobs point into; deques keep addresses stable.
struct Suite {
  std::deque<netlist::Netlist> netlists;
  std::deque<lock::LockResult> locks;
  std::deque<attack::SequentialOracle> oracles;
  std::vector<Job> jobs;
};

/// Runs one set-up step; with a tracer, inside a span under the set-up root.
template <typename F>
decltype(auto) setup_step(Tracer* tracer, int root, const char* name,
                          F&& step) {
  ScopedSpan span(tracer, name, 0, root);
  return step();
}

const netlist::Netlist& add_netlist(Suite& s, netlist::Netlist nl) {
  return s.netlists.emplace_back(std::move(nl));
}

const attack::SequentialOracle& compile_oracle(Suite& s, Tracer* tracer,
                                               int root,
                                               const netlist::Netlist& nl) {
  return setup_step(tracer, root, "sim.oracle_compile",
                    [&]() -> const attack::SequentialOracle& {
                      return s.oracles.emplace_back(nl);
                    });
}

void build_mega_static(Suite& s, std::uint64_t seed, Tracer* tracer,
                       int root) {
  const netlist::Netlist& original =
      add_netlist(s, setup_step(tracer, root, "benchgen.gen", [] {
        return benchgen::make_circuit("syn64k").netlist;
      }));
  const attack::SequentialOracle& oracle =
      compile_oracle(s, tracer, root, original);
  for (const std::size_t k : {2u, 4u}) {
    for (const char* name : {"INT", "KC2"}) {
      // One lock instance per job: a traced capture then starts from an
      // empty observation bank (banks are keyed by the locked structure).
      const std::string cell =
          "syn64k/cl-str-k" + std::to_string(k) + "/" + name;
      core::StrOptions options;
      options.num_keys = k;
      options.key_bits = 4;
      options.locked_ffs = std::min<std::size_t>(4, original.dffs().size());
      options.seed = mix(seed, "lock/" + cell);
      const lock::LockResult& lr =
          s.locks.emplace_back(setup_step(tracer, root, "lock.build", [&] {
            return core::cute_lock_str(original, options);
          }));
      Job job;
      job.cell = cell;
      job.attack = name;
      job.cute_lock = true;
      job.dynamic_key = true;
      job.locked = job.seq_locked = &lr.locked;
      job.seq_original = &original;
      job.oracle = &oracle;
      job.budget = mega_budget();
      job.seed = mix(seed, "job/" + cell);
      s.jobs.push_back(job);
    }
  }
}

constexpr const char* kMatrixCircuits[] = {"s27", "s298", "b01"};
constexpr const char* kMatrixAttacks[] = {"INT", "KC2", "RANE", "SAT", "BBO"};
constexpr const char* kMatrixFsms[] = {"dmac", "checker9"};
constexpr const char* kBehAttacks[] = {"INT", "KC2", "BBO"};

void build_lock_matrix(Suite& s, std::uint64_t seed, Tracer* tracer,
                       int root) {
  std::vector<std::vector<Job>> groups;  // one per circuit or FSM
  for (const char* circuit : kMatrixCircuits) {
    groups.emplace_back();
    const netlist::Netlist& original =
        add_netlist(s, setup_step(tracer, root, "benchgen.gen", [&] {
          return benchgen::make_circuit(circuit).netlist;
        }));
    const attack::SequentialOracle& oracle =
        compile_oracle(s, tracer, root, original);
    const netlist::Netlist& original_scan =
        add_netlist(s, setup_step(tracer, root, "netlist.scan_expose", [&] {
          return netlist::scan_expose(original);
        }));
    const attack::SequentialOracle& scan_oracle =
        compile_oracle(s, tracer, root, original_scan);
    for (const lock::RegisteredLock& entry : lock::lock_registry()) {
      for (const std::string attack_name : kMatrixAttacks) {
        const bool scan = attack_name == "SAT";
        if (scan && entry.adds_state) continue;  // scan exposure n/a
        const std::string cell =
            std::string(circuit) + "/" + entry.name + "/" + attack_name;
        util::Rng rng(mix(seed, "lock/" + cell));
        const lock::LockResult& lr =
            s.locks.emplace_back(setup_step(tracer, root, "lock.build", [&] {
              return entry.build(original, rng);
            }));
        Job job;
        job.cell = cell;
        job.attack = attack_name;
        job.cute_lock = entry.name == "cl-str";
        job.dynamic_key = entry.dynamic_key;
        job.seq_locked = &lr.locked;
        job.seq_original = &original;
        job.true_key = &lr.correct_key;
        if (scan) {
          job.locked = &add_netlist(
              s, setup_step(tracer, root, "netlist.scan_expose",
                            [&] { return netlist::scan_expose(lr.locked); }));
          job.oracle = &scan_oracle;
        } else {
          job.locked = &lr.locked;
          job.oracle = &oracle;
        }
        job.budget = table_budget();
        job.seed = mix(seed, "job/" + cell);
        groups.back().push_back(job);
      }
    }
  }
  for (const char* fsm_name : kMatrixFsms) {
    const benchgen::FsmSpec& spec = benchgen::find_fsm_spec(fsm_name);
    const fsm::Stg stg = setup_step(tracer, root, "benchgen.gen",
                                    [&] { return benchgen::make_fsm(spec); });
    const netlist::Netlist& original =
        add_netlist(s, setup_step(tracer, root, "benchgen.gen", [&] {
          return fsm::synthesize(stg, fsm::SynthStyle::DirectTransitions,
                                 spec.name);
        }));
    const attack::SequentialOracle& oracle =
        compile_oracle(s, tracer, root, original);
    groups.emplace_back();
    for (const std::string attack_name : kBehAttacks) {
      const std::string cell = spec.name + "/cl-beh/" + attack_name;
      core::BehOptions options;
      options.num_keys = spec.lock_keys;
      options.key_bits = spec.lock_bits;
      options.seed = mix(seed, "lock/" + cell);
      const lock::LockResult& lr =
          s.locks.emplace_back(setup_step(tracer, root, "lock.build", [&] {
            const core::BehLock lock(stg, options);
            return lock.synthesize(fsm::SynthStyle::DirectTransitions,
                                   spec.name + "_l");
          }));
      Job job;
      job.cell = cell;
      job.attack = attack_name;
      job.cute_lock = true;
      job.dynamic_key = true;
      job.locked = job.seq_locked = &lr.locked;
      job.seq_original = &original;
      job.oracle = &oracle;
      job.budget = table_budget();
      job.seed = mix(seed, "job/" + cell);
      groups.back().push_back(job);
    }
  }
  // Round-robin over the groups, so any prefix of the list (a run cut by
  // the clock mid-pass) holds about the same mix of cheap and costly cells.
  for (std::size_t i = 0; i < groups.front().size(); ++i) {
    for (const std::vector<Job>& group : groups) {
      if (i < group.size()) s.jobs.push_back(group[i]);
    }
  }
}

std::unique_ptr<Suite> build_suite(const std::string& workload,
                                   std::uint64_t seed, Tracer* tracer) {
  auto suite = std::make_unique<Suite>();
  ScopedSpan root(tracer, "setup", 0, -1);
  if (workload == "mega_static") {
    build_mega_static(*suite, seed, tracer, root.id());
  } else {
    build_lock_matrix(*suite, seed, tracer, root.id());
  }
  return suite;
}

attack::AttackResult call_attack(const Job& job) {
  if (job.attack == "INT") {
    return attack::bmc_attack(*job.locked, *job.oracle, job.budget);
  }
  if (job.attack == "KC2") {
    return attack::kc2_attack(*job.locked, *job.oracle, job.budget);
  }
  if (job.attack == "RANE") {
    return attack::rane_attack(*job.locked, *job.oracle, job.budget);
  }
  if (job.attack == "SAT") {
    attack::SatAttackOptions options;
    options.budget = job.budget;
    return attack::sat_attack(*job.locked, *job.oracle, options);
  }
  attack::BboOptions options;
  options.budget = job.budget;
  options.jobs = 1;  // the closed loop owns the process: one thread
  return attack::bbo_attack(*job.locked, *job.oracle, options);
}

attack::AcceptOptions accept_options(const Job& job) {
  attack::AcceptOptions options;
  options.criterion = attack::AcceptCriterion::AnyPassingKey;
  options.seed = mix(job.seed, "accept");
  options.verify.seed = mix(job.seed, "verify");
  options.verify.time_limit_s = 1e9;  // the conflict budget bounds it
  return options;
}

/// Every reported static key is judged under any-key acceptance; Cute-Lock
/// keys are schedules, with no static ground truth to judge against.
bool judged(const Job& job, const attack::AttackResult& r) {
  return !job.dynamic_key && !r.key.empty();
}

JobVerdict verdict_of(const Job& job, const attack::AttackResult& r,
                      const attack::AcceptReport* accept) {
  JobVerdict v;
  v.cell = job.cell;
  v.cute_lock = job.cute_lock;
  v.outcome = attack::outcome_label(r.outcome);
  v.any_key_pass = accept == nullptr ? -1 : accept->any_key_pass;
  return v;
}

/// One untraced job: the attack call plus its acceptance check.
std::string run_job(const Job& job, std::uint64_t seed, double* latency,
                    std::set<std::string>* verdicts) {
  const Clock::time_point t0 = Clock::now();
  const attack::AttackResult r = call_attack(job);
  std::optional<attack::AcceptReport> accept;
  if (judged(job, r)) {
    accept = attack::verify_any_key(*job.seq_locked, r.key, *job.seq_original,
                                    job.true_key, accept_options(job));
  }
  *latency = since(t0);
  const JobVerdict v = verdict_of(job, r, accept ? &*accept : nullptr);
  verdicts->insert(v.cell + " " + v.outcome + " " +
                   std::to_string(v.any_key_pass));
  return check_verdict(v, table_for(seed));
}

/// Set up `reps` times, recording each duration; the last suite is kept.
std::unique_ptr<Suite> repeated_setup(const std::string& workload,
                                      std::uint64_t seed, int reps,
                                      std::vector<double>* times) {
  std::unique_ptr<Suite> suite;
  for (int i = 0; i < reps; ++i) {
    suite.reset();
    const Clock::time_point t0 = Clock::now();
    suite = build_suite(workload, seed, nullptr);
    times->push_back(since(t0));
  }
  return suite;
}

RunReport run_in_process(const RunOptions& options) {
  RunReport out;
  std::vector<double> setups;
  // Set-up is short next to the timed phase (a few milliseconds on
  // lock_matrix), so it is repeated over a few hundred milliseconds or more.
  const int reps = options.workload == "mega_static" ? 5 : 100;
  const std::unique_ptr<Suite> suite =
      repeated_setup(options.workload, options.seed, reps, &setups);
  Tally tally;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; since(t0) < options.seconds; ++i) {
    const Job& job = suite->jobs[i % suite->jobs.size()];
    double latency = -1.0;
    std::string failure;
    try {
      failure = run_job(job, options.seed, &latency, &out.verdicts);
    } catch (const std::exception& e) {
      failure = job.cell + ": " + e.what();
    }
    tally.add(latency, failure);
  }
  report_end_to_end(tally, since(t0), setups, peak_rss_mb(), &out);
  return out;
}

// ---- traced in-process run -------------------------------------------------

struct TraceCounts {
  std::size_t jobs = 0;
  std::size_t facts = 0;
  std::size_t clauses = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t patterns = 0;
  std::uint64_t iterations = 0;
  std::uint64_t fresh = 0;
  std::uint64_t replayed = 0;
  std::uint64_t batches = 0;
  std::vector<std::string> flagged;  // replayed_queries != 0 or dirty bank
};

/// Re-execute a captured job through the public layer calls, each under
/// its own span, in the DIP loop's rhythm: a miter at the start depth,
/// deepened by one step whenever a fact of the next depth arrives; both key
/// copies' constraints for every fact; a solve after every discriminating
/// sequence (a fact as long as the current depth); the loop's two closing
/// solves; the oracle queries; and the key checks. Returns a failure reason
/// or "".
std::string replay_job(const Job& job, const attack::AttackResult& r,
                       const std::vector<attack::Observation>& facts,
                       std::uint64_t patterns, Tracer& tracer,
                       std::uint64_t id, int root, std::uint64_t seed,
                       TraceCounts& counts) {
  if (!facts.empty()) {
    const attack::SeqAttackOptions loop;  // start depth and step
    std::size_t depth = loop.start_depth;
    for (const attack::Observation& fact : facts) {
      depth = std::min(depth, fact.inputs.size());
    }
    sat::Solver solver;
    std::unique_ptr<cnf::SequentialMiter> miter;
    {
      ScopedSpan span(&tracer, "cnf.miter_build", id, root);
      miter = std::make_unique<cnf::SequentialMiter>(solver, *job.locked,
                                                     job.attack == "RANE");
      miter->extend_to(depth);
    }
    const std::vector<sat::Var>* init =
        job.attack == "RANE" ? &miter->initial_state_vars() : nullptr;
    const auto solve = [&](std::vector<sat::Lit> assumptions) {
      ScopedSpan span(&tracer, "sat.solve", id, root);
      solver.set_conflict_budget(job.budget.conflict_budget);
      solver.solve(assumptions);
    };
    for (const attack::Observation& fact : facts) {
      const std::size_t len = fact.inputs.size();
      if (len == depth + loop.depth_step && len <= job.budget.max_depth) {
        ScopedSpan span(&tracer, "cnf.miter_build", id, root);
        miter->extend_to(len);
        depth = len;
      }
      {
        ScopedSpan span(&tracer, "cnf.fact_encode", id, root);
        const std::size_t before = solver.num_clauses();
        cnf::constrain_key_on_sequence(solver, *job.locked, miter->keys_a(),
                                       fact.inputs, fact.outputs, init);
        cnf::constrain_key_on_sequence(solver, *job.locked, miter->keys_b(),
                                       fact.inputs, fact.outputs, init);
        counts.clauses += solver.num_clauses() - before;
        ++counts.facts;
      }
      if (len == depth) solve({miter->diff_within(depth)});
    }
    solve({miter->diff_within(depth)});  // no discriminating sequence left
    solve({});                           // a consistent key, if any
    counts.conflicts += solver.stats().conflicts;
    counts.propagations += solver.stats().propagations;
  }
  {
    ScopedSpan span(&tracer, "sim.oracle_query", id, root);
    if (!facts.empty()) {
      // Batched by sequence length, and checked against the bank: a fact
      // the oracle does not reproduce is a failed job.
      std::map<std::size_t, std::vector<const attack::Observation*>> by_len;
      for (const attack::Observation& fact : facts) {
        by_len[fact.inputs.size()].push_back(&fact);
      }
      for (const auto& [len, group] : by_len) {
        std::vector<std::vector<sim::BitVec>> batch;
        for (const attack::Observation* fact : group) batch.push_back(fact->inputs);
        const auto outputs = job.oracle->query_batch(batch);
        for (std::size_t j = 0; j < group.size(); ++j) {
          if (outputs[j] != group[j]->outputs) {
            return job.cell + ": banked fact disagrees with the oracle";
          }
        }
      }
    } else if (patterns > 0) {
      // No facts (BBO keeps none): replay the same oracle volume on fresh
      // seed-derived sequences of BBO's screening length.
      util::Rng rng(mix(job.seed, "patterns"));
      const std::size_t cycles = attack::BboOptions{}.screen_cycles;
      std::uint64_t left = patterns;
      while (left > 0) {
        const std::size_t lanes = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, 1024));
        std::vector<std::vector<sim::BitVec>> batch(lanes);
        for (auto& seq : batch) {
          for (std::size_t c = 0; c < cycles; ++c) {
            seq.push_back(sim::random_bits(rng, job.oracle->num_inputs()));
          }
        }
        job.oracle->query_batch(batch);
        left -= lanes;
      }
    }
  }
  if (!judged(job, r)) {
    return check_verdict(verdict_of(job, r, nullptr), table_for(seed));
  }
  {
    ScopedSpan span(&tracer, "attack.verify", id, root);
    attack::verify_static_key(*job.seq_locked, r.key, *job.seq_original,
                              accept_options(job).verify);
  }
  ScopedSpan span(&tracer, "attack.accept", id, root);
  const attack::AcceptReport accept = attack::verify_any_key(
      *job.seq_locked, r.key, *job.seq_original, job.true_key,
      accept_options(job));
  return check_verdict(verdict_of(job, r, &accept), table_for(seed));
}

/// Every per-layer metric in report order, with its unit. A workload
/// fills the ones it exercises; the others read 0.
constexpr const char* kLayerMetrics[][2] = {
    {"cnf.miter_build_s", "s/job"},   {"cnf.fact_encode_s", "s/job"},
    {"cnf.clauses_per_fact", "clauses/fact"},
    {"sat.solve_s", "s/job"},         {"sat.conflicts", "count/job"},
    {"sat.propagations", "count/job"},
    {"attack.verify_s", "s/job"},     {"attack.accept_s", "s/job"},
    {"sim.oracle_query_s", "s/job"},  {"sim.patterns", "count/job"},
    {"attack.iterations", "count/job"},
    {"attack.fresh_queries", "count/job"},
    {"attack.replayed_queries", "count/job"},
    {"attack.oracle_batches", "count/job"},
    {"benchgen.gen_s", "s"},          {"lock.build_s", "s"},
    {"sim.oracle_compile_s", "s"},
    {"service.rtt_s", "s"},           {"service.overhead_s", "s"},
    {"service.cache_hit_ratio", "fraction"},
    {"service.bank_facts", "count"},
    {"trace.capture_s", "s/job"},
};

/// The per-layer metrics from `values`, then each layer's share of the job
/// spans and the unattributed remainder, plus the span table as report
/// lines.
void report_layers(const LayerSplit& split,
                   const std::map<std::string, double>& values,
                   RunReport* out) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    out->per_layer.push_back(
        {name, it == values.end() ? 0.0 : it->second, unit});
  }
  const auto share = [&](const std::string& layer) {
    const auto it = split.self_s.find(layer);
    return split.job_span_s > 0.0 && it != split.self_s.end()
               ? it->second / split.job_span_s
               : 0.0;
  };
  for (const char* layer : {"cnf", "sat", "sim", "attack", "service"}) {
    out->per_layer.push_back(
        {std::string("trace.share.") + layer, share(layer), "fraction"});
  }
  out->per_layer.push_back(
      {"trace.unattributed_share",
       split.job_span_s > 0.0 ? split.unattributed_s / split.job_span_s : 0.0,
       "fraction"});
  char line[256];
  std::snprintf(line, sizeof line,
                "trace: %zu job spans, %.4f s in total, unattributed %.6f s "
                "(%.2f%%)",
                split.jobs, split.job_span_s, split.unattributed_s,
                split.job_span_s > 0.0
                    ? 100.0 * split.unattributed_s / split.job_span_s
                    : 0.0);
  out->notes.push_back(line);
  for (const auto& [layer, self] : split.self_s) {
    std::snprintf(line, sizeof line, "trace: layer %-8s self %.6f s  share %.2f%%",
                  layer.c_str(), self, 100.0 * share(layer));
    out->notes.push_back(line);
  }
  for (const auto& [name, self] : split.span_self_s) {
    std::snprintf(line, sizeof line, "trace:   span %-22s x%-6zu self %.6f s",
                  name.c_str(), split.span_count.at(name), self);
    out->notes.push_back(line);
  }
}

/// Self time of the spans named `name`, summed over the split.
double span_total(const LayerSplit& split, const std::string& name) {
  const auto it = split.span_self_s.find(name);
  return it == split.span_self_s.end() ? 0.0 : it->second;
}

double span_self_per_job(const LayerSplit& split, const std::string& name) {
  return split.jobs == 0 ? 0.0
                         : span_total(split, name) /
                               static_cast<double>(split.jobs);
}

RunReport run_in_process_traced(const RunOptions& options, Tracer& tracer) {
  RunReport out;
  const Clock::time_point setup_t0 = Clock::now();
  const std::unique_ptr<Suite> suite =
      build_suite(options.workload, options.seed, &tracer);
  const double setup_s = since(setup_t0);

  // One pass over the job list: each job has its own lock instance, so
  // each capture starts from an empty observation bank.
  Tally tally;
  TraceCounts counts;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < suite->jobs.size() && since(t0) < 120.0; ++i) {
    const Job& job = suite->jobs[i];
    const std::uint64_t id = i + 1;
    const Clock::time_point job_t0 = Clock::now();
    std::string failure;
    try {
      attack::AttackResult r;
      std::vector<attack::Observation> facts;
      std::uint64_t patterns = 0;
      {
        ScopedSpan capture(&tracer, "capture", id, -1);
        attack::ObservationBank& bank = attack::observation_bank_for_key(
            attack::bank_key(*job.locked, job.oracle->reference()));
        if (bank.size() != 0) counts.flagged.push_back(job.cell + " (bank not empty)");
        const std::uint64_t before = job.oracle->num_queries();
        {
          struct ForcedBank {
            ForcedBank() { attack::set_observation_bank_forced(true); }
            ~ForcedBank() { attack::set_observation_bank_forced(false); }
          } forced;
          r = call_attack(job);
        }
        patterns = job.oracle->num_queries() - before;
        facts = bank.snapshot();
      }
      if (r.replayed_queries != 0) {
        counts.flagged.push_back(job.cell + " (replayed_queries " +
                                 std::to_string(r.replayed_queries) + ")");
      }
      ++counts.jobs;
      counts.patterns += patterns;
      counts.iterations += r.iterations;
      counts.fresh += r.fresh_queries;
      counts.replayed += r.replayed_queries;
      counts.batches += r.oracle_batches;
      ScopedSpan root(&tracer, "job", id, -1);
      failure = replay_job(job, r, facts, patterns, tracer, id, root.id(),
                           options.seed, counts);
    } catch (const std::exception& e) {
      failure = job.cell + ": " + e.what();
    }
    tally.add(since(job_t0), failure);
    char line[160];
    std::snprintf(line, sizeof line, "trace: job %llu %s %.4f s, peak rss %.1f MB",
                  static_cast<unsigned long long>(id), job.cell.c_str(),
                  since(job_t0), peak_rss_mb());
    out.notes.push_back(line);
  }
  report_end_to_end(tally, since(t0), {setup_s}, peak_rss_mb(), &out);

  const std::vector<Span> spans = tracer.spans();
  const LayerSplit split = layer_split(spans, "job");
  const LayerSplit setup = layer_split(spans, "setup");
  const LayerSplit capture = layer_split(spans, "capture");
  const double jobs = std::max<double>(1.0, static_cast<double>(counts.jobs));
  const auto per_job = [&](double total) { return total / jobs; };
  const std::map<std::string, double> values = {
      {"cnf.miter_build_s", span_self_per_job(split, "cnf.miter_build")},
      {"cnf.fact_encode_s", span_self_per_job(split, "cnf.fact_encode")},
      {"cnf.clauses_per_fact",
       counts.facts == 0 ? 0.0
                         : static_cast<double>(counts.clauses) /
                               static_cast<double>(counts.facts)},
      {"sat.solve_s", span_self_per_job(split, "sat.solve")},
      {"sat.conflicts", per_job(static_cast<double>(counts.conflicts))},
      {"sat.propagations", per_job(static_cast<double>(counts.propagations))},
      {"attack.verify_s", span_self_per_job(split, "attack.verify")},
      {"attack.accept_s", span_self_per_job(split, "attack.accept")},
      {"sim.oracle_query_s", span_self_per_job(split, "sim.oracle_query")},
      {"sim.patterns", per_job(static_cast<double>(counts.patterns))},
      {"attack.iterations", per_job(static_cast<double>(counts.iterations))},
      {"attack.fresh_queries", per_job(static_cast<double>(counts.fresh))},
      {"attack.replayed_queries", per_job(static_cast<double>(counts.replayed))},
      {"attack.oracle_batches", per_job(static_cast<double>(counts.batches))},
      {"benchgen.gen_s", span_total(setup, "benchgen.gen")},
      {"lock.build_s", span_total(setup, "lock.build")},
      {"sim.oracle_compile_s", span_total(setup, "sim.oracle_compile")},
      {"trace.capture_s", per_job(capture.job_span_s)},
  };
  report_layers(split, values, &out);
  out.notes.push_back("trace: " + std::to_string(counts.flagged.size()) +
                      " flagged jobs");
  for (const std::string& flag : counts.flagged) {
    out.notes.push_back("trace: flagged job " + flag);
  }
  return out;
}

// ---------------------------------------------------------------------------
// service_mix: a closed loop of small attack jobs against a spawned
// `cutelock serve` daemon, over the NDJSON protocol on a loopback socket.

// Two cheap circuits to one costly one: the median job is a cheap one and
// the 90th percentile a costly one, instead of both sitting on the gap.
constexpr const char* kServiceCircuits[] = {"s27", "b01", "s298"};
constexpr std::size_t kConnections = 2;
constexpr std::size_t kDaemonWorkers = 2;  // one per connection: no backlog
constexpr int kDaemonStarts = 100;  // ~2 ms each
constexpr int kDaemonSessions = 5;

/// One (locked, oracle) pair of the job stream.
struct ServicePair {
  std::size_t circuit = 0;
  const lock::RegisteredLock* entry = nullptr;
  std::string mode;  // bmc | kc2 | sat (the service's names)
  std::string cell;  // verdict-table key, attack named as in lock_matrix
  std::uint64_t lock_seed = 0;
};

/// The seed-derived job stream. Pairs cycle through a fixed list of
/// (lock scheme, attack, circuit) classes, so every run sees the same mix;
/// the seed picks each pair's lock instance. Even jobs bring a new pair; odd
/// jobs (a fixed half) resubmit an earlier pair of the same class, so the
/// daemon's circuit cache and observation bank hit.
class ServiceStream {
 public:
  explicit ServiceStream(std::uint64_t seed) : seed_(seed) {
    for (const char* circuit : kServiceCircuits) {
      originals_.push_back(benchgen::make_circuit(circuit).netlist);
      oracle_texts_.push_back(netlist::write_bench_string(originals_.back()));
    }
    // RANE is left out: with a symbolic reset it does not block a refuted
    // key, so its verdict depends on which facts the shared bank holds when
    // it starts, i.e. on how concurrent jobs interleave (README.md).
    static const char* const kModes[][2] = {
        {"bmc", "INT"}, {"kc2", "KC2"}, {"sat", "SAT"}};
    for (const lock::RegisteredLock& entry : lock::lock_registry()) {
      for (const auto& mode : kModes) {
        // The scan-model SAT attack does not apply to locks that add state.
        if (entry.adds_state && std::string(mode[0]) == "sat") continue;
        for (std::size_t c = 0; c < originals_.size(); ++c) {
          ServicePair p;
          p.circuit = c;
          p.entry = &entry;
          p.mode = mode[0];
          p.cell = std::string(kServiceCircuits[c]) + "/" + entry.name + "/" +
                   mode[1];
          classes_.push_back(p);
        }
      }
    }
  }

  /// The pair of job `job` in a daemon session whose first job is `first`
  /// (even): the resubmitted pair is one sent in the same session.
  std::size_t pair_of(std::size_t job, std::size_t first) const {
    const std::size_t k = job / 2;
    if (job % 2 == 0) return k;
    const std::size_t cycles = (k - first / 2) / classes_.size() + 1;
    return k - classes_.size() *
                   (mix(seed_, "resubmit/" + std::to_string(job)) % cycles);
  }

  ServicePair pair(std::size_t n) const {
    ServicePair p = classes_[n % classes_.size()];
    p.lock_seed = mix(seed_, "lock/pair/" + std::to_string(n));
    return p;
  }

  /// Bench text of pair n's locked circuit, built once (client side, before
  /// the job's clock starts).
  std::string locked_text(std::size_t n, const ServicePair& p) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = locked_.find(n);
      if (it != locked_.end()) return it->second;
    }
    util::Rng rng(p.lock_seed);
    std::string text = netlist::write_bench_string(
        p.entry->build(originals_[p.circuit], rng).locked);
    std::lock_guard<std::mutex> lock(mu_);
    return locked_.emplace(n, std::move(text)).first->second;
  }

  const std::string& oracle_text(const ServicePair& p) const {
    return oracle_texts_[p.circuit];
  }

 private:
  std::uint64_t seed_;
  std::vector<netlist::Netlist> originals_;
  std::vector<std::string> oracle_texts_;
  std::vector<ServicePair> classes_;
  std::mutex mu_;
  std::map<std::size_t, std::string> locked_;
};

service::Json attack_request(const std::string& locked,
                             const std::string& oracle,
                             const ServicePair& p) {
  service::Json req = service::Json::object();
  req.set("op", service::Json::string("submit"));
  req.set("job", service::Json::string("attack"));
  req.set("locked", service::Json::string(locked));
  req.set("oracle", service::Json::string(oracle));
  req.set("attack", service::Json::string(p.mode));
  // No wall deadline decides a job: the iteration/depth budgets do.
  req.set("seconds", service::Json::number(1e6));
  req.set("max_iterations", service::Json::number(std::uint64_t{500}));
  req.set("max_depth", service::Json::number(std::uint64_t{24}));
  req.set("accept", service::Json::string("any"));
  return req;
}

/// What the client threads accumulate, merged under a mutex.
struct ServiceTally {
  Tally tally;
  std::vector<double> overheads;  // client latency minus server seconds
  std::uint64_t results = 0;
  std::uint64_t iterations = 0;
  std::uint64_t fresh = 0;
  std::uint64_t replayed = 0;
  std::uint64_t preloaded = 0;
};

/// One connection's closed loop: submit, wait for the terminal reply,
/// judge it, take the next job.
void client_loop(int port, ServiceStream& stream, std::atomic<std::size_t>& next,
                 std::size_t first, Clock::time_point deadline,
                 std::uint64_t seed,
                 Tracer* tracer, std::mutex& mu, ServiceTally& total,
                 std::set<std::string>& verdicts) {
  ServiceTally mine;
  std::set<std::string> seen;
  service::Client client;
  std::string error;
  if (!client.connect_tcp(port, &error)) {
    std::lock_guard<std::mutex> lock(mu);
    total.tally.add(-1.0, "connect: " + error);
    return;
  }
  while (Clock::now() < deadline) {
    const std::size_t i = next.fetch_add(1);
    const std::uint64_t id = i + 1;
    const std::size_t n = stream.pair_of(i, first);
    const ServicePair p = stream.pair(n);
    const service::Json request =
        attack_request(stream.locked_text(n, p), stream.oracle_text(p), p);

    JobVerdict verdict;
    verdict.cell = p.cell;
    verdict.cute_lock = p.entry->name == "cl-str";
    double server_s = 0.0;
    std::string failure;
    service::Json reply;
    ScopedSpan root(tracer, "job", id, -1);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "service.submit", id, root.id());
      if (!client.request(request, &reply, &error)) failure = "transport: " + error;
    }
    if (failure.empty() && !reply.bool_or("ok", false)) {
      failure = "refused: " + reply.str_or("error", "(no diagnostic)");
    }
    service::Json done;
    if (failure.empty()) {
      service::Json wait = service::Json::object();
      wait.set("op", service::Json::string("wait"));
      wait.set("id", service::Json::number(reply.u64_or("id", 0)));
      const double w0 = tracer != nullptr ? tracer->now() : 0.0;
      if (!client.request(wait, &done, &error)) {
        failure = "transport: " + error;
      } else {
        failure = judge_service_reply(done, &verdict, &server_s);
      }
      if (tracer != nullptr) {
        // The server-reported job time, as a child at the end of the wait.
        const double w1 = tracer->now();
        const int wait_span = tracer->add("service.wait", id, root.id(), w0, w1);
        tracer->add("attack.server_job", id, wait_span,
                    std::max(w0, w1 - server_s), w1);
      }
    }
    const double latency = since(t0);
    if (failure.empty()) {
      failure = check_verdict(verdict, table_for(seed));
      if (!failure.empty()) {
        failure += " (" + done.find("result")->str_or("summary", "") + ")";
      }
      seen.insert(verdict.cell + " " + verdict.outcome + " " +
                  std::to_string(verdict.any_key_pass));
      mine.overheads.push_back(latency - server_s);
      const service::Json& result = *done.find("result");
      ++mine.results;
      mine.iterations += result.u64_or("iterations", 0);
      mine.fresh += result.u64_or("fresh_queries", 0);
      mine.replayed += result.u64_or("replayed_queries", 0);
      mine.preloaded += result.u64_or("preloaded_facts", 0);
    }
    mine.tally.add(verdict.outcome.empty() ? -1.0 : latency, failure);
  }
  std::lock_guard<std::mutex> lock(mu);
  Tally& t = total.tally;
  t.latencies.insert(t.latencies.end(), mine.tally.latencies.begin(),
                     mine.tally.latencies.end());
  t.attempted += mine.tally.attempted;
  t.failed += mine.tally.failed;
  for (const std::string& f : mine.tally.failures) {
    if (t.failures.size() < 20) t.failures.push_back(f);
  }
  total.overheads.insert(total.overheads.end(), mine.overheads.begin(),
                         mine.overheads.end());
  total.results += mine.results;
  total.iterations += mine.iterations;
  total.fresh += mine.fresh;
  total.replayed += mine.replayed;
  total.preloaded += mine.preloaded;
  verdicts.insert(seen.begin(), seen.end());
}

/// One request on a fresh connection to the daemon on `port`.
service::Json request_once(int port, const char* op) {
  service::Client client;
  service::Json req = service::Json::object();
  req.set("op", service::Json::string(op));
  service::Json reply;
  std::string error;
  if (!client.connect_tcp(port, &error) ||
      !client.request(req, &reply, &error) || !reply.bool_or("ok", false)) {
    throw std::runtime_error(std::string(op) + ": " + error + " " + reply.dump());
  }
  return reply;
}

/// A spawned `cutelock serve` daemon on an ephemeral loopback port. The
/// destructor shuts it down and reaps it; a daemon that does not exit after
/// its shutdown reply within ten seconds is killed.
class Daemon {
 public:
  Daemon() {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("serve: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    const std::string workers = std::to_string(kDaemonWorkers);
    const char* argv[] = {ATTACKBENCH_CUTELOCK_CLI, "serve", "--port", "0",
                          "--workers", workers.c_str(), nullptr};
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error(std::string("serve: cannot spawn ") + argv[0]);
    }
    // The daemon prints its bound address once it accepts connections.
    std::string line;
    char c = 0;
    while (line.size() < 256 && read(out_fd_, &c, 1) == 1 && c != '\n') line += c;
    const std::size_t colon = line.rfind(':');
    if (line.find("listening on 127.0.0.1:") == std::string::npos ||
        colon == std::string::npos) {
      throw std::runtime_error("serve: no listening line, got \"" + line + "\"");
    }
    port_ = std::atoi(line.c_str() + colon + 1);
  }
  ~Daemon() {
    try {
      request_once(port_, "shutdown");
    } catch (const std::exception&) {
      // Unresponsive: the wait below ends in a kill.
    }
    for (int i = 0; i < 1000 && pid_ > 0; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) pid_ = -1;
      else std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    close(out_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }

  /// The daemon's peak resident memory (VmHWM), in MB.
  double peak_rss_mb() const {
    std::FILE* f = std::fopen(("/proc/" + std::to_string(pid_) + "/status").c_str(), "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    return kib / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

/// Daemon start until it answers a ping: the service's set-up time.
std::unique_ptr<Daemon> start_daemon(double* seconds) {
  const Clock::time_point t0 = Clock::now();
  auto daemon = std::make_unique<Daemon>();
  request_once(daemon->port(), "ping");
  *seconds = since(t0);
  return daemon;
}

RunReport run_service(const RunOptions& options, Tracer* tracer) {
  RunReport out;
  ServiceStream stream(options.seed);
  std::vector<double> starts;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kDaemonStarts; ++i) {
    daemon.reset();
    double s = 0.0;
    daemon = start_daemon(&s);
    starts.push_back(s);
  }

  // The timed phase runs kDaemonSessions daemons one after the other, each
  // for an equal share of the time. One daemon's peak memory is set by the
  // largest job it happens to meet, an extreme value that moves with the
  // seed's lock instances; the median over the sessions does not.
  ServiceTally total;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  std::vector<double> peaks, bank_facts;
  double hits = 0.0, misses = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (int session = 0; session < kDaemonSessions; ++session) {
    if (session > 0) {
      double ignored = 0.0;
      daemon = start_daemon(&ignored);
    }
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(options.seconds * (session + 1) /
                                               kDaemonSessions));
    // Sessions start on a new pair (an even job), so the resubmits of a
    // session only name pairs this daemon has seen.
    const std::size_t first = (next.load() + 1) / 2 * 2;
    next = first;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.emplace_back(client_loop, daemon->port(), std::ref(stream),
                           std::ref(next), first, deadline, options.seed,
                           tracer, std::ref(mu), std::ref(total),
                           std::ref(out.verdicts));
    }
    for (std::thread& t : clients) t.join();
    const service::Json stats = request_once(daemon->port(), "stats");
    if (const service::Json* cache = stats.find("circuit_cache")) {
      hits += cache->num_or("hits", 0.0);
      misses += cache->num_or("misses", 0.0);
    }
    const service::Json* bank = stats.find("observation_bank");
    bank_facts.push_back(bank != nullptr ? bank->num_or("facts", 0.0) : 0.0);
    peaks.push_back(daemon->peak_rss_mb());
    daemon.reset();
  }
  const double wall_s = since(t0);
  report_end_to_end(total.tally, wall_s, starts, median(peaks), &out);
  char line[160];
  std::snprintf(line, sizeof line,
                "service: %d daemon sessions, peak rss %.1f .. %.1f MB",
                kDaemonSessions, *std::min_element(peaks.begin(), peaks.end()),
                *std::max_element(peaks.begin(), peaks.end()));
  out.notes.push_back(line);
  if (tracer == nullptr) return out;

  const double jobs =
      std::max<double>(1.0, static_cast<double>(total.results));
  const LayerSplit split = layer_split(tracer->spans(), "job");
  const std::map<std::string, double> values = {
      {"attack.iterations", static_cast<double>(total.iterations) / jobs},
      {"attack.fresh_queries", static_cast<double>(total.fresh) / jobs},
      {"attack.replayed_queries", static_cast<double>(total.replayed) / jobs},
      {"service.rtt_s", percentile(total.tally.latencies, 50.0)},
      {"service.overhead_s", median(total.overheads)},
      {"service.cache_hit_ratio",
       hits + misses > 0.0 ? hits / (hits + misses) : 0.0},
      {"service.bank_facts", median(bank_facts)},
  };
  report_layers(split, values, &out);
  std::snprintf(line, sizeof line,
                "service: %.0f cache hits / %.0f misses, %llu preloaded facts "
                "over %llu jobs",
                hits, misses, static_cast<unsigned long long>(total.preloaded),
                static_cast<unsigned long long>(total.results));
  out.notes.push_back(line);
  return out;
}

}  // namespace

RunReport run_workload(const RunOptions& options) {
  std::unique_ptr<Tracer> tracer;
  if (options.trace) tracer = std::make_unique<Tracer>();
  RunReport report;
  if (options.workload == "service_mix") {
    report = run_service(options, tracer.get());
  } else if (options.workload == "mega_static" ||
             options.workload == "lock_matrix") {
    report = options.trace ? run_in_process_traced(options, *tracer)
                           : run_in_process(options);
  } else {
    throw std::runtime_error("unknown workload \"" + options.workload + "\"");
  }
  if (tracer != nullptr && !options.trace_path.empty() &&
      !tracer->write_json(options.trace_path)) {
    throw std::runtime_error("cannot write " + options.trace_path);
  }
  return report;
}

}  // namespace attackbench
