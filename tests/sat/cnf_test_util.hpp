// Shared CNF generators and oracles for the sat tests: pigeon-hole
// instances, random width-k CNFs, brute-force verdicts, and clause loading.
// Kept header-only so every sat test uses the exact same instance
// distributions.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace cl::sat::test_util {

/// PHP(n, n-1) pigeon-hole clauses: hard UNSAT driver for DB-reduction and
/// budget tests.
inline void add_pigeon_hole(Solver& s, int n) {
  std::vector<std::vector<Var>> p(static_cast<std::size_t>(n),
                                  std::vector<Var>(static_cast<std::size_t>(n - 1)));
  for (auto& row : p) {
    for (Var& v : row) v = s.new_var();
  }
  for (int i = 0; i < n; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < n - 1; ++j) {
      clause.push_back(pos(p[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]));
    }
    s.add_clause(clause);
  }
  for (int j = 0; j < n - 1; ++j) {
    for (int i1 = 0; i1 < n; ++i1) {
      for (int i2 = i1 + 1; i2 < n; ++i2) {
        s.add_binary(neg(p[static_cast<std::size_t>(i1)][static_cast<std::size_t>(j)]),
                     neg(p[static_cast<std::size_t>(i2)][static_cast<std::size_t>(j)]));
      }
    }
  }
}

/// Random width-`width` CNF over variables 1..nv in DIMACS-style signed
/// ints (negative = negated).
inline std::vector<std::vector<int>> random_cnf(util::Rng& rng, int nv, int nc,
                                                int width = 3) {
  std::vector<std::vector<int>> clauses;
  for (int c = 0; c < nc; ++c) {
    std::vector<int> clause;
    for (int l = 0; l < width; ++l) {
      const int var = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nv)));
      clause.push_back(rng.chance(1, 2) ? var : -var);
    }
    clauses.push_back(clause);
  }
  return clauses;
}

/// Exhaustive verdict over all 2^nv assignments (nv <= ~20).
inline bool brute_force_sat(const std::vector<std::vector<int>>& clauses, int nv,
                            const std::vector<int>& assumptions = {}) {
  for (std::uint32_t m = 0; m < (1u << nv); ++m) {
    const auto holds = [&](int l) {
      const bool val = (m >> (std::abs(l) - 1)) & 1u;
      return (l > 0) == val;
    };
    bool all = true;
    for (int l : assumptions) all = all && holds(l);
    for (const auto& clause : clauses) {
      if (!all) break;
      bool any = false;
      for (int l : clause) any = any || holds(l);
      all = all && any;
    }
    if (all) return true;
  }
  return false;
}

/// Load a signed-int CNF into a solver via a var mapping (vars[i] is
/// DIMACS variable i+1).
inline void load_cnf(Solver& s, const std::vector<std::vector<int>>& clauses,
                     const std::vector<Var>& vars) {
  for (const auto& clause : clauses) {
    std::vector<Lit> lits;
    for (int l : clause) {
      lits.push_back(Lit(vars[static_cast<std::size_t>(std::abs(l) - 1)], l < 0));
    }
    s.add_clause(lits);
  }
}

}  // namespace cl::sat::test_util
