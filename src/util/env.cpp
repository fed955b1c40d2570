#include "util/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/thread_pool.hpp"

namespace cl::util {

bool parse_double_strict(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  // Reject "inf"/"nan" too: a non-finite budget fed into
  // Solver::set_time_budget would overflow the duration_cast.
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

bool parse_size_strict(const char* text, std::size_t* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 0) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

bool env_flag(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  if (env[0] != '\0' && env[1] == '\0') {
    if (env[0] == '1') return true;
    if (env[0] == '0') return false;
  }
  // Like every other CUTELOCK_* parser: "true", "yes", trailing junk etc.
  // warn instead of silently meaning "off".
  std::fprintf(stderr,
               "warning: ignoring invalid %s=\"%s\" (want 0 or 1); "
               "treating as off\n",
               name, env);
  return false;
}

double env_double_or(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  double v = 0.0;
  if (!parse_double_strict(env, &v) || v <= 0) {
    std::fprintf(stderr,
                 "warning: ignoring invalid %s=\"%s\" (want a positive "
                 "number); using %g\n",
                 name, env, fallback);
    return fallback;
  }
  return v;
}

std::size_t env_size_or(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  std::size_t v = 0;
  if (!parse_size_strict(env, &v) || v == 0) {
    std::fprintf(stderr,
                 "warning: ignoring invalid %s=\"%s\" (want a positive "
                 "integer); using %zu\n",
                 name, env, fallback);
    return fallback;
  }
  return v;
}

std::size_t jobs_from_env() {
  return env_size_or("CUTELOCK_JOBS", ThreadPool::default_thread_count());
}

bool obs_bank_from_env() { return env_flag("CUTELOCK_OBS_BANK"); }

std::string obs_bank_path_from_env() {
  const char* env = std::getenv("CUTELOCK_OBS_BANK_PATH");
  return env == nullptr ? std::string() : std::string(env);
}

bool key_hints_from_env() {
  // Stable mode wins: hint injection changes solver trajectories, and the
  // stable tables promise byte-identical output at any knob setting.
  return env_flag("CUTELOCK_KEY_HINTS") && !env_flag("CUTELOCK_BENCH_STABLE");
}

bool sat_preprocess_from_env() {
  // Stable mode wins, exactly like key hints: preprocessing changes solver
  // trajectories, and the stable tables promise byte-identical output.
  return env_flag("CUTELOCK_SAT_PREPROCESS") &&
         !env_flag("CUTELOCK_BENCH_STABLE");
}

double sat_gc_frac_from_env() {
  static const double cached = [] {
    const double v = env_double_or("CUTELOCK_SAT_GC_FRAC", 0.25);
    if (v > 1.0) {
      std::fprintf(stderr,
                   "warning: CUTELOCK_SAT_GC_FRAC=%g > 1 would disable arena "
                   "GC; using 0.25\n",
                   v);
      return 0.25;
    }
    return v;
  }();
  return cached;
}

}  // namespace cl::util
