// Miter constructions for oracle-guided attacks.
//
// SequentialMiter: two unrolled copies of a locked circuit with independent
// static key vectors KA/KB but shared per-frame inputs, plus per-depth
// "outputs differ within d frames" indicator variables. Solving with the
// indicator assumed true yields a discriminating input sequence (DIS).
//
// Both copies go through the partially evaluating frame walker. Per frame,
// copy B takes copy A's term for every signal its key does not reach (the
// key inputs plus every DFF whose D pin they reached in the previous frame
// are the tainted sources), so only the key-dependent logic is encoded
// twice, and an output XOR is skipped when both copies hold one term.
//
// constrain_key_on_sequence: the oracle-consistency constraint — one
// unrolled copy with inputs fixed to a concrete sequence and outputs fixed to
// the oracle's response, evaluated under a given key vector. Inputs and the
// power-up state are constants, so only the key-dependent logic gets
// clauses; a determined output that contradicts the oracle adds the empty
// clause.
#pragma once

#include <vector>

#include "cnf/encoder.hpp"
#include "sim/sequence.hpp"

namespace cl::cnf {

class SequentialMiter {
 public:
  /// `symbolic_initial_state`: model the reset state as unknown-but-shared
  /// between the two copies (the RANE threat model) instead of fixing it to
  /// the DFF power-up values.
  SequentialMiter(sat::Solver& solver, const netlist::Netlist& locked,
                  bool symbolic_initial_state = false);

  /// Unroll both copies to `depth` frames.
  void extend_to(std::size_t depth);

  std::size_t depth() const { return cumulative_diff_.size(); }

  /// Literal that is true iff some output differs in frames [0, depth).
  /// Valid after extend_to(depth).
  sat::Lit diff_within(std::size_t depth) const;

  const std::vector<sat::Var>& keys_a() const { return keys_a_; }
  const std::vector<sat::Var>& keys_b() const { return keys_b_; }

  /// Shared input variables of frame t.
  const std::vector<sat::Var>& inputs(std::size_t t) const { return inputs_.at(t); }

  /// After a Sat solve: the concrete input sequence of the first `depth`
  /// frames from the model.
  std::vector<sim::BitVec> extract_inputs(std::size_t depth) const;

  /// After a Sat solve: concrete key vector from the model (copy A or B).
  sim::BitVec extract_key_a() const;
  sim::BitVec extract_key_b() const;

  /// Shared symbolic reset-state variables (empty unless enabled).
  const std::vector<sat::Var>& initial_state_vars() const { return init_state_; }

 private:
  sat::Solver& solver_;
  const netlist::Netlist& nl_;
  FrameProgram program_;  // built once, walked per frame and copy
  std::vector<sat::Var> keys_a_;
  std::vector<sat::Var> keys_b_;
  std::vector<sat::Var> init_state_;            // shared when symbolic
  std::vector<Term> reset_;                     // frame-0 state of both copies
  std::vector<std::vector<sat::Var>> inputs_;   // per frame
  Frame last_a_;                                // most recent frame per copy
  Frame last_b_;
  Term diff_so_far_;                            // some output differed yet
  std::vector<sat::Lit> cumulative_diff_;       // per depth (index d-1)
};

/// Cross-circuit bounded equivalence miter: circuit A (may have key inputs,
/// exposed as variables) against circuit B (the reference; must be key-free)
/// with shared per-frame primary inputs, matched positionally. Used to
/// verify candidate keys exactly up to a bound.
class EquivalenceMiter {
 public:
  EquivalenceMiter(sat::Solver& solver, const netlist::Netlist& a,
                   const netlist::Netlist& b);

  void extend_to(std::size_t depth);
  std::size_t depth() const { return cumulative_diff_.size(); }

  /// Literal: some output differs within [0, depth).
  sat::Lit diff_within(std::size_t depth) const;

  const std::vector<sat::Var>& keys_a() const { return keys_a_; }

  /// After Sat: the distinguishing input sequence.
  std::vector<sim::BitVec> extract_inputs(std::size_t depth) const;

 private:
  sat::Solver& solver_;
  const netlist::Netlist& a_;
  const netlist::Netlist& b_;
  FrameProgram program_a_;  // built once per circuit
  FrameProgram program_b_;
  std::vector<sat::Var> keys_a_;
  std::vector<std::vector<sat::Var>> inputs_;
  Frame last_a_;
  Frame last_b_;
  Term diff_so_far_;
  std::vector<sat::Lit> cumulative_diff_;
};

/// Add the constraint: running `nl` for inputs.size() cycles from the reset
/// state with key variables `key_vars` (held static) and the given concrete
/// input sequence produces exactly `outputs`. This is the DIP-consistency
/// clause set of the oracle-guided attack loop. When `init_vars` is given,
/// the run starts from those shared symbolic state variables instead of the
/// power-up constants (RANE threat model). Throws std::invalid_argument,
/// before adding any clause, when the sequence lengths differ or a key,
/// state, input or output width does not match `nl`.
void constrain_key_on_sequence(sat::Solver& solver, const netlist::Netlist& nl,
                               const std::vector<sat::Var>& key_vars,
                               const std::vector<sim::BitVec>& inputs,
                               const std::vector<sim::BitVec>& outputs,
                               const std::vector<sat::Var>* init_vars = nullptr);

/// The same constraint for a periodic key schedule: frame t reads the key
/// variables of `slots[t % slots.size()]`, from the power-up state.
void constrain_schedule_on_sequence(
    sat::Solver& solver, const netlist::Netlist& nl,
    const std::vector<std::vector<sat::Var>>& slots,
    const std::vector<sim::BitVec>& inputs,
    const std::vector<sim::BitVec>& outputs);

/// Extract the model values of `vars` as a BitVec.
sim::BitVec extract_bits(const sat::Solver& solver,
                         const std::vector<sat::Var>& vars);

}  // namespace cl::cnf
