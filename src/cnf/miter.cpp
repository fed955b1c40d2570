#include "cnf/miter.hpp"

#include <stdexcept>
#include <string>

namespace cl::cnf {

using netlist::Netlist;
using netlist::SignalId;
using sat::Lit;
using sat::Solver;
using sat::Var;

namespace {

/// Fold one frame's output comparison into the running "differs" term.
Term accumulate_diff(Solver& solver, Term so_far, const Frame& a,
                     const std::vector<SignalId>& outs_a, const Frame& b,
                     const std::vector<SignalId>& outs_b) {
  std::vector<Term> any{so_far};
  std::vector<Term> pair;
  for (std::size_t o = 0; o < outs_a.size(); ++o) {
    const Term ya = a[outs_a[o]];
    const Term yb = b[outs_b[o]];
    if (ya == yb) continue;  // shared logic cannot differ
    pair = {ya, yb};
    any.push_back(make_xor(solver, pair));
  }
  return make_or(solver, any);
}

std::vector<Term> constant_terms(const sim::BitVec& bits) {
  std::vector<Term> out;
  out.reserve(bits.size());
  for (const std::uint8_t b : bits) out.push_back(Term::constant(b != 0));
  return out;
}

/// Shared body of constrain_key_on_sequence / constrain_schedule_on_sequence:
/// frame t reads the key terms of slots[t % slots.size()].
void constrain_run(Solver& solver, const Netlist& nl,
                   const std::vector<std::vector<Var>>& slots,
                   const std::vector<sim::BitVec>& inputs,
                   const std::vector<sim::BitVec>& outputs,
                   const std::vector<Var>* init_vars, const char* caller) {
  const auto reject = [caller](const std::string& what) {
    throw std::invalid_argument(std::string(caller) + ": " + what);
  };
  if (inputs.size() != outputs.size()) reject("length mismatch");
  if (slots.empty()) reject("no key slots");
  for (const std::vector<Var>& slot : slots) {
    if (slot.size() != nl.key_inputs().size()) reject("key width mismatch");
  }
  if (init_vars != nullptr && init_vars->size() != nl.dffs().size()) {
    reject("init state width mismatch");
  }
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    if (inputs[t].size() != nl.inputs().size()) {
      reject("input width mismatch at frame " + std::to_string(t));
    }
    if (outputs[t].size() != nl.outputs().size()) {
      reject("output width mismatch at frame " + std::to_string(t));
    }
  }
  if (inputs.empty()) return;

  std::vector<std::vector<Term>> keys;
  keys.reserve(slots.size());
  for (const std::vector<Var>& slot : slots) keys.push_back(var_terms(slot));
  std::vector<Term> state = init_vars != nullptr
                                ? var_terms(*init_vars)
                                : power_up_state(solver, nl);
  const FrameProgram program(nl);
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    FrameSources src;
    src.inputs = constant_terms(inputs[t]);
    src.keys = keys[t % keys.size()];
    src.states = std::move(state);
    const Frame frame = encode_frame(solver, program, std::move(src));
    // Fix outputs to the oracle response: a determined output either
    // agrees (nothing to add) or refutes every key (the empty clause).
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      const Term y = frame[nl.outputs()[o]];
      const bool want = outputs[t][o] != 0;
      if (!y.is_const()) {
        solver.add_unit(want ? y.lit() : ~y.lit());
      } else if (y.value() != want) {
        solver.add_clause({});
        return;
      }
    }
    state = frame.next_state(nl);
  }
}

}  // namespace

SequentialMiter::SequentialMiter(Solver& solver, const Netlist& locked,
                                 bool symbolic_initial_state)
    : solver_(solver), nl_(locked), program_(locked) {
  keys_a_.reserve(nl_.key_inputs().size());
  keys_b_.reserve(nl_.key_inputs().size());
  for (std::size_t i = 0; i < nl_.key_inputs().size(); ++i) {
    keys_a_.push_back(solver_.new_var());
    keys_b_.push_back(solver_.new_var());
  }
  if (symbolic_initial_state) {
    init_state_.reserve(nl_.dffs().size());
    for (std::size_t i = 0; i < nl_.dffs().size(); ++i) {
      init_state_.push_back(solver_.new_var());
    }
    reset_ = var_terms(init_state_);
  } else {
    // One power-up for both copies: an X bit is one free variable the two
    // copies share, like the symbolic reset.
    reset_ = power_up_state(solver_, nl_);
  }
}

void SequentialMiter::extend_to(std::size_t depth) {
  while (cumulative_diff_.size() < depth) {
    const std::size_t t = cumulative_diff_.size();
    // Shared inputs for this frame.
    std::vector<Var> ins;
    ins.reserve(nl_.inputs().size());
    for (std::size_t i = 0; i < nl_.inputs().size(); ++i) {
      ins.push_back(solver_.new_var());
    }
    FrameSources src_a;
    src_a.inputs = var_terms(ins);
    src_a.keys = var_terms(keys_a_);
    src_a.states = t == 0 ? reset_ : last_a_.next_state(nl_);
    FrameSources src_b;
    src_b.inputs = src_a.inputs;
    src_b.keys = var_terms(keys_b_);
    src_b.states = t == 0 ? reset_ : last_b_.next_state(nl_);
    inputs_.push_back(std::move(ins));

    Frame a = encode_frame(solver_, program_, std::move(src_a));
    Frame b = encode_frame(solver_, program_, std::move(src_b), &a);
    diff_so_far_ = accumulate_diff(solver_, diff_so_far_, a, nl_.outputs(), b,
                                   nl_.outputs());
    cumulative_diff_.push_back(to_lit(solver_, diff_so_far_));
    last_a_ = std::move(a);
    last_b_ = std::move(b);
  }
}

Lit SequentialMiter::diff_within(std::size_t depth) const {
  if (depth == 0 || depth > cumulative_diff_.size()) {
    throw std::out_of_range("diff_within: depth not unrolled");
  }
  return cumulative_diff_[depth - 1];
}

std::vector<sim::BitVec> SequentialMiter::extract_inputs(std::size_t depth) const {
  std::vector<sim::BitVec> out;
  out.reserve(depth);
  for (std::size_t t = 0; t < depth; ++t) {
    out.push_back(extract_bits(solver_, inputs_[t]));
  }
  return out;
}

sim::BitVec SequentialMiter::extract_key_a() const {
  return extract_bits(solver_, keys_a_);
}

sim::BitVec SequentialMiter::extract_key_b() const {
  return extract_bits(solver_, keys_b_);
}

void constrain_key_on_sequence(Solver& solver, const Netlist& nl,
                               const std::vector<Var>& key_vars,
                               const std::vector<sim::BitVec>& inputs,
                               const std::vector<sim::BitVec>& outputs,
                               const std::vector<Var>* init_vars) {
  constrain_run(solver, nl, {key_vars}, inputs, outputs, init_vars,
                "constrain_key_on_sequence");
}

void constrain_schedule_on_sequence(Solver& solver, const Netlist& nl,
                                    const std::vector<std::vector<Var>>& slots,
                                    const std::vector<sim::BitVec>& inputs,
                                    const std::vector<sim::BitVec>& outputs) {
  constrain_run(solver, nl, slots, inputs, outputs, nullptr,
                "constrain_schedule_on_sequence");
}

EquivalenceMiter::EquivalenceMiter(Solver& solver, const Netlist& a,
                                   const Netlist& b)
    : solver_(solver),
      a_(a),
      b_(b),
      program_a_(a),
      program_b_(b) {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    throw std::invalid_argument("EquivalenceMiter: interface mismatch");
  }
  if (!b.key_inputs().empty()) {
    throw std::invalid_argument("EquivalenceMiter: reference must be key-free");
  }
  keys_a_.reserve(a.key_inputs().size());
  for (std::size_t i = 0; i < a.key_inputs().size(); ++i) {
    keys_a_.push_back(solver_.new_var());
  }
}

void EquivalenceMiter::extend_to(std::size_t depth) {
  while (cumulative_diff_.size() < depth) {
    const std::size_t t = cumulative_diff_.size();
    std::vector<Var> ins;
    ins.reserve(a_.inputs().size());
    for (std::size_t i = 0; i < a_.inputs().size(); ++i) {
      ins.push_back(solver_.new_var());
    }
    FrameSources src_a;
    src_a.inputs = var_terms(ins);
    src_a.keys = var_terms(keys_a_);
    src_a.states = t == 0 ? power_up_state(solver_, a_) : last_a_.next_state(a_);
    FrameSources src_b;
    src_b.inputs = src_a.inputs;
    src_b.states = t == 0 ? power_up_state(solver_, b_) : last_b_.next_state(b_);
    inputs_.push_back(std::move(ins));

    last_a_ = encode_frame(solver_, program_a_, std::move(src_a));
    last_b_ = encode_frame(solver_, program_b_, std::move(src_b));
    diff_so_far_ = accumulate_diff(solver_, diff_so_far_, last_a_, a_.outputs(),
                                   last_b_, b_.outputs());
    cumulative_diff_.push_back(to_lit(solver_, diff_so_far_));
  }
}

Lit EquivalenceMiter::diff_within(std::size_t depth) const {
  if (depth == 0 || depth > cumulative_diff_.size()) {
    throw std::out_of_range("diff_within: depth not unrolled");
  }
  return cumulative_diff_[depth - 1];
}

std::vector<sim::BitVec> EquivalenceMiter::extract_inputs(
    std::size_t depth) const {
  std::vector<sim::BitVec> out;
  out.reserve(depth);
  for (std::size_t t = 0; t < depth; ++t) {
    out.push_back(extract_bits(solver_, inputs_[t]));
  }
  return out;
}

sim::BitVec extract_bits(const Solver& solver, const std::vector<Var>& vars) {
  sim::BitVec out(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    out[i] = solver.model_value(vars[i]) ? 1 : 0;
  }
  return out;
}

}  // namespace cl::cnf
