// Span recorder for the benchmark's traced run.
//
// Spans are recorded only in the benchmark's own code, around its calls into
// the library's public entry points. Each span has a name, a start and an
// end (seconds since the tracer was created), the index of its parent span
// (-1 for a root) and the id of the job it belongs to. They are kept in
// memory and written out once at the end. Thread-safe: the service workload
// records from several client threads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace attackbench {

struct Span {
  std::string name;
  std::uint64_t job = 0;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  Tracer();

  /// Seconds since construction (steady clock).
  double now() const;

  /// Open a span now; close it with end().
  int begin(const std::string& name, std::uint64_t job, int parent);
  void end(int id);

  /// Record a span whose interval was measured elsewhere.
  int add(const std::string& name, std::uint64_t job, int parent,
          double start, double end);

  std::vector<Span> spans() const;

  /// Write every span as one JSON document (an array of objects).
  bool write_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: open on construction, close on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::uint64_t job,
             int parent)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->begin(name, job, parent)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// its child spans cover (children clipped to the parent's interval).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Per-layer attribution of the spans under roots named `root`. A layer is
/// the span-name prefix before the first '.', so "cnf.fact_encode" belongs
/// to "cnf". Spans outside those roots are ignored.
struct LayerSplit {
  double job_span_s = 0.0;     // summed duration of the root spans
  double unattributed_s = 0.0; // the roots' own self time
  std::map<std::string, double> self_s;  // per layer
  std::map<std::string, double> span_self_s;  // per span name
  std::map<std::string, std::size_t> span_count;
  std::size_t jobs = 0;
};
LayerSplit layer_split(const std::vector<Span>& spans, const std::string& root);

}  // namespace attackbench
