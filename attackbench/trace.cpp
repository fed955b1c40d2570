#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace attackbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::begin(const std::string& name, std::uint64_t job, int parent) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, job, parent, t, t});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end = t;
}

int Tracer::add(const std::string& name, std::uint64_t job, int parent,
                double start, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, job, parent, start, end});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"job\": %llu, "
                 "\"parent\": %d, \"start\": %.9f, \"end\": %.9f}%s\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.job),
                 s.parent, s.start, s.end, i + 1 < all.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const Span& child : spans) {
    if (child.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(child.parent)];
    const double covered = std::min(child.end, parent.end) -
                           std::max(child.start, parent.start);
    if (covered > 0.0) self[static_cast<std::size_t>(child.parent)] -= covered;
  }
  return self;
}

LayerSplit layer_split(const std::vector<Span>& spans, const std::string& root) {
  const std::vector<double> self = self_times(spans);
  // A span belongs to the split when its chain of parents reaches a root
  // named `root`; parents always precede children in recording order.
  std::vector<char> inside(spans.size(), 0);
  LayerSplit split;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) {
      if (s.name != root) continue;
      inside[i] = 1;
      split.job_span_s += s.end - s.start;
      split.unattributed_s += self[i];
      ++split.jobs;
      continue;
    }
    if (!inside[static_cast<std::size_t>(s.parent)]) continue;
    inside[i] = 1;
    split.self_s[s.name.substr(0, s.name.find('.'))] += self[i];
    split.span_self_s[s.name] += self[i];
    ++split.span_count[s.name];
  }
  return split;
}

}  // namespace attackbench
