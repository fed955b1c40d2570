// Candidate-key verification. Every attack runs its recovered key through
// this check before claiming success, so "Equal" in the tables always means
// a genuinely working key.
#pragma once

#include <optional>

#include "attack/result.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace cl::attack {

struct VerifyOptions {
  std::size_t random_sequences = 32;  // fast rejection phase
  std::size_t sequence_cycles = 64;
  /// Bounded exact phase. Pure CDCL equivalence proofs grow exponentially
  /// with depth (no induction), so the default stays shallow; the heavy
  /// randomized phase carries the discriminating load beyond it.
  std::size_t sat_depth = 8;
  double time_limit_s = 5.0;          // SAT-phase wall-clock cap
  std::int64_t conflict_budget = 500'000;
  std::uint64_t seed = 0xdecafULL;
};

struct VerifyResult {
  bool equivalent = false;
  /// The SAT phase ran out of budget (conflicts or time_limit_s) before it
  /// proved or refuted equivalence: `equivalent` is false, but the key is
  /// not known to be wrong either.
  bool unfinished = false;
  /// Counterexample input sequence when not equivalent (may be empty if the
  /// mismatch came from the SAT phase at a depth beyond reconstruction).
  std::vector<sim::BitVec> counterexample;

  /// The verdict this check supports for the key: Equal on a proof,
  /// WrongKey on a refutation, Timeout when the proof did not finish.
  Outcome outcome() const {
    if (equivalent) return Outcome::Equal;
    return unfinished ? Outcome::Timeout : Outcome::WrongKey;
  }
};

/// VerifyOptions inheriting the budget's verification caps — the one place
/// attack implementations derive verifier settings from an AttackBudget.
VerifyOptions verify_options_for(const AttackBudget& budget);

/// Is `locked` with the static `key` sequentially equivalent to `original`?
/// Phase 1: randomized simulation (cheap, catches almost everything).
/// Phase 2: SAT bounded-equivalence miter up to sat_depth frames.
VerifyResult verify_static_key(const netlist::Netlist& locked,
                               const sim::BitVec& key,
                               const netlist::Netlist& original,
                               const VerifyOptions& options = {});

}  // namespace cl::attack
