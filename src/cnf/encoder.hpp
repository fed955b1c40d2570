// Partially evaluating Tseitin encoder: the one walker for every netlist
// frame the attacks put into a SAT solver.
//
// One "frame" is one copy of the combinational logic. Each source (primary
// input, key input, DFF output) is either a known constant or a solver
// literal. Constants fold through every gate, NOT and BUF become literal
// negation and aliasing, and only the gates that stay undetermined get a
// fresh variable and clauses. Next-state values are read through the terms
// of the DFF D-pin signals.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace cl::cnf {

/// A signal's value in one frame: a constant, or a solver literal.
class Term {
 public:
  Term() = default;  // constant 0
  static Term constant(bool value) { return from_code(value ? -1 : -2); }
  static Term literal(sat::Lit lit) { return from_code(lit.code()); }
  static Term var(sat::Var v) { return literal(sat::pos(v)); }

  bool is_const() const { return code_ < 0; }
  /// The constant's value (constants only).
  bool value() const { return code_ == -1; }
  /// The solver literal (literals only).
  sat::Lit lit() const { return sat::Lit::from_code(code_); }

  Term operator~() const { return from_code(code_ ^ 1); }
  bool operator==(const Term& o) const = default;
  bool operator<(const Term& o) const { return code_ < o.code_; }

 private:
  static Term from_code(std::int32_t code) {
    Term t;
    t.code_ = code;
    return t;
  }
  // >= 0: literal code; -2: constant 0; -1: constant 1 (so ~ flips both).
  std::int32_t code_ = -2;
};

/// Fresh-variable terms, one per entry (a frame's free sources).
std::vector<Term> var_terms(const std::vector<sat::Var>& vars);

/// Terms of one combinational frame, indexed by SignalId.
struct Frame {
  std::vector<Term> term;  // size == netlist.size()

  Term operator[](netlist::SignalId s) const { return term[s]; }

  /// Terms of the DFF D pins: the next frame's state sources.
  std::vector<Term> next_state(const netlist::Netlist& nl) const;
};

/// Source terms for a frame. Any of the vectors may be left empty to let the
/// encoder allocate fresh variables for that port class.
struct FrameSources {
  std::vector<Term> inputs;  // parallel to nl.inputs()
  std::vector<Term> keys;    // parallel to nl.key_inputs()
  std::vector<Term> states;  // parallel to nl.dffs()
};

/// A netlist's combinational gates flattened for repeated frame walks: a
/// topological order (fanins first) with types and fanins in contiguous
/// arrays. Unrollings build it once and walk it for every frame. A DFS
/// gives the order without netlist::levelize's fanout lists (about 2 ms
/// instead of 10 ms on syn64k). Keeps a reference: `nl` must outlive it.
/// Throws std::logic_error on a combinational cycle.
class FrameProgram {
 public:
  explicit FrameProgram(const netlist::Netlist& nl);

 private:
  friend Frame encode_frame(sat::Solver&, const FrameProgram&, FrameSources,
                            const Frame*);
  struct Gate {
    netlist::SignalId id;
    netlist::GateType type;
    std::uint32_t fanin_begin;  // into fanins_; count = next gate's begin
  };
  const netlist::Netlist& nl_;
  std::vector<Gate> gates_;  // constants first; plus one end sentinel
  std::vector<netlist::SignalId> fanins_;
};

/// Encode one combinational frame into `solver`, folding constants (AND/OR:
/// a controlling constant decides, the others drop out; XOR/XNOR: constants
/// fold into the parity; MUX: a known select picks a branch). With a
/// `shadow` (an earlier frame of the same netlist), every gate whose fanin
/// terms all equal the shadow's takes the shadow's term without new clauses:
/// a second miter copy encodes only what its own sources change.
Frame encode_frame(sat::Solver& solver, const FrameProgram& program,
                   FrameSources sources, const Frame* shadow = nullptr);

/// One-off frame of `nl` (builds the FrameProgram for this call only).
Frame encode_frame(sat::Solver& solver, const netlist::Netlist& nl,
                   FrameSources sources = {});

/// Frame-0 state from the DFF power-up values: Zero/One are constants, an X
/// power-up is a fresh free variable.
std::vector<Term> power_up_state(sat::Solver& solver,
                                 const netlist::Netlist& nl);

/// Folding gate builders shared with the miters. Each consumes `ins` as
/// scratch space.
Term make_and(sat::Solver& s, std::vector<Term>& ins);
Term make_or(sat::Solver& s, std::vector<Term>& ins);
Term make_xor(sat::Solver& s, std::vector<Term>& ins);
Term make_mux(sat::Solver& s, Term sel, Term a, Term b);

/// A solver literal equal to `t`: a constant gets a fresh variable fixed by
/// a unit clause.
sat::Lit to_lit(sat::Solver& s, Term t);

/// Model value of `t` after a Sat solve.
bool model_value(const sat::Solver& s, Term t);

}  // namespace cl::cnf
