#include "cnf/encoder.hpp"

#include <algorithm>
#include <stdexcept>

namespace cl::cnf {

using netlist::DffInit;
using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;
using sat::Lit;
using sat::Solver;
using sat::Var;

std::vector<Term> var_terms(const std::vector<Var>& vars) {
  std::vector<Term> out;
  out.reserve(vars.size());
  for (Var v : vars) out.push_back(Term::var(v));
  return out;
}

std::vector<Term> Frame::next_state(const Netlist& nl) const {
  std::vector<Term> out;
  out.reserve(nl.dffs().size());
  for (SignalId d : nl.dffs()) out.push_back(term[nl.dff_input(d)]);
  return out;
}

Term make_and(Solver& s, std::vector<Term>& ins) {
  // A constant 0 decides the gate; constant 1s drop out.
  std::size_t n = 0;
  for (const Term t : ins) {
    if (t.is_const()) {
      if (!t.value()) return Term::constant(false);
      continue;
    }
    ins[n++] = t;
  }
  ins.resize(n);
  if (n > 1) {
    // x & x = x; x & ~x = 0 (complements sort next to each other).
    std::sort(ins.begin(), ins.end());
    ins.erase(std::unique(ins.begin(), ins.end()), ins.end());
    for (std::size_t i = 1; i < ins.size(); ++i) {
      if (ins[i] == ~ins[i - 1]) return Term::constant(false);
    }
  }
  if (ins.empty()) return Term::constant(true);
  if (ins.size() == 1) return ins[0];
  // y -> ai ; (a1 & ... & an) -> y
  const Lit y = sat::pos(s.new_var());
  std::vector<Lit> big;
  big.reserve(ins.size() + 1);
  for (const Term a : ins) {
    s.add_binary(~y, a.lit());
    big.push_back(~a.lit());
  }
  big.push_back(y);
  s.add_clause(std::move(big));
  return Term::literal(y);
}

Term make_or(Solver& s, std::vector<Term>& ins) {
  for (Term& t : ins) t = ~t;
  return ~make_and(s, ins);
}

Term make_xor(Solver& s, std::vector<Term>& ins) {
  // Constants and literal polarities fold into the parity; what remains is
  // a set of positive literals where equal pairs cancel.
  bool parity = false;
  std::size_t n = 0;
  for (Term t : ins) {
    if (t.is_const()) {
      parity ^= t.value();
      continue;
    }
    if (t.lit().negated()) {
      parity = !parity;
      t = ~t;
    }
    ins[n++] = t;
  }
  ins.resize(n);
  std::sort(ins.begin(), ins.end());
  n = 0;
  for (std::size_t i = 0; i < ins.size();) {
    if (i + 1 < ins.size() && ins[i] == ins[i + 1]) {
      i += 2;
      continue;
    }
    ins[n++] = ins[i++];
  }
  ins.resize(n);
  if (ins.empty()) return Term::constant(parity);
  // Chain pairwise XORs.
  Lit acc = ins[0].lit();
  for (std::size_t k = 1; k < ins.size(); ++k) {
    const Lit b = ins[k].lit();
    const Lit y = sat::pos(s.new_var());
    s.add_ternary(~y, acc, b);
    s.add_ternary(~y, ~acc, ~b);
    s.add_ternary(y, ~acc, b);
    s.add_ternary(y, acc, ~b);
    acc = y;
  }
  const Term out = Term::literal(acc);
  return parity ? ~out : out;
}

Term make_mux(Solver& s, Term sel, Term a, Term b) {
  // out = sel ? b : a
  if (sel.is_const()) return sel.value() ? b : a;
  if (a == b) return a;
  std::vector<Term> two;
  if (a == ~b) {
    two = {sel, a};
    return make_xor(s, two);
  }
  if (a.is_const()) {
    if (a.value()) {  // ~sel | b
      two = {~sel, b};
      return make_or(s, two);
    }
    two = {sel, b};
    return make_and(s, two);
  }
  if (b.is_const()) {
    if (b.value()) {  // sel | a
      two = {sel, a};
      return make_or(s, two);
    }
    two = {~sel, a};
    return make_and(s, two);
  }
  const Lit y = sat::pos(s.new_var());
  const Lit l = sel.lit();
  s.add_ternary(l, ~a.lit(), y);
  s.add_ternary(l, a.lit(), ~y);
  s.add_ternary(~l, ~b.lit(), y);
  s.add_ternary(~l, b.lit(), ~y);
  return Term::literal(y);
}

Lit to_lit(Solver& s, Term t) {
  if (!t.is_const()) return t.lit();
  const Var v = s.new_var();
  s.add_unit(Lit(v, !t.value()));
  return sat::pos(v);
}

bool model_value(const Solver& s, Term t) {
  return t.is_const() ? t.value() : s.model_value(t.lit());
}

std::vector<Term> power_up_state(Solver& solver, const Netlist& nl) {
  std::vector<Term> out;
  out.reserve(nl.dffs().size());
  for (SignalId d : nl.dffs()) {
    switch (nl.dff_init(d)) {
      case DffInit::Zero: out.push_back(Term::constant(false)); break;
      case DffInit::One: out.push_back(Term::constant(true)); break;
      // An X power-up is free — the attack may choose it, which only makes
      // the attacker stronger.
      case DffInit::X: out.push_back(Term::var(solver.new_var())); break;
    }
  }
  return out;
}

FrameProgram::FrameProgram(const Netlist& nl) : nl_(nl) {
  const auto emit = [this](SignalId id, GateType type) {
    gates_.push_back(
        {id, type, static_cast<std::uint32_t>(fanins_.size())});
    for (SignalId f : nl_.node(id).fanins) fanins_.push_back(f);
  };
  for (SignalId id = 0; id < nl.size(); ++id) {
    const GateType t = nl.type(id);
    if (t == GateType::Const0 || t == GateType::Const1) emit(id, t);
  }
  // Iterative DFS postorder over combinational fanins: every gate is emitted
  // after its fanins. On the stack, an opened gate is an ancestor of
  // everything above it, so meeting one as a fanin closes a cycle.
  enum Mark : std::uint8_t { kNew, kOpen, kDone };
  std::vector<std::uint8_t> mark(nl.size(), kNew);
  std::vector<SignalId> stack;
  for (SignalId root = 0; root < nl.size(); ++root) {
    if (mark[root] != kNew || !netlist::is_comb_gate(nl.type(root))) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const SignalId id = stack.back();
      if (mark[id] == kNew) {
        mark[id] = kOpen;
        for (SignalId f : nl.node(id).fanins) {
          if (!netlist::is_comb_gate(nl.type(f)) || mark[f] == kDone) continue;
          if (mark[f] == kOpen) {
            throw std::logic_error(
                "FrameProgram: combinational cycle through " +
                nl.signal_name(f));
          }
          stack.push_back(f);
        }
        continue;
      }
      stack.pop_back();
      if (mark[id] == kOpen) {
        mark[id] = kDone;
        emit(id, nl.type(id));
      }
    }
  }
  gates_.push_back(
      {0, GateType::Buf, static_cast<std::uint32_t>(fanins_.size())});
}

Frame encode_frame(Solver& solver, const Netlist& nl, FrameSources sources) {
  return encode_frame(solver, FrameProgram(nl), std::move(sources));
}

Frame encode_frame(Solver& solver, const FrameProgram& program,
                   FrameSources sources, const Frame* shadow) {
  const Netlist& nl = program.nl_;
  const auto fill = [&solver](std::vector<Term>& terms, std::size_t need) {
    if (terms.empty()) {
      terms.reserve(need);
      for (std::size_t i = 0; i < need; ++i) {
        terms.push_back(Term::var(solver.new_var()));
      }
    } else if (terms.size() != need) {
      throw std::invalid_argument("encode_frame: source arity mismatch");
    }
  };
  fill(sources.inputs, nl.inputs().size());
  fill(sources.keys, nl.key_inputs().size());
  fill(sources.states, nl.dffs().size());
  if (shadow != nullptr && shadow->term.size() != nl.size()) {
    throw std::invalid_argument("encode_frame: shadow frame size mismatch");
  }

  Frame frame;
  frame.term.assign(nl.size(), Term());
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    frame.term[nl.inputs()[i]] = sources.inputs[i];
  }
  for (std::size_t i = 0; i < nl.key_inputs().size(); ++i) {
    frame.term[nl.key_inputs()[i]] = sources.keys[i];
  }
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    frame.term[nl.dffs()[i]] = sources.states[i];
  }

  std::vector<Term> ins;
  const std::vector<FrameProgram::Gate>& gates = program.gates_;
  for (std::size_t g = 0; g + 1 < gates.size(); ++g) {
    const SignalId id = gates[g].id;
    const SignalId* fanin = program.fanins_.data() + gates[g].fanin_begin;
    const SignalId* fanin_end =
        program.fanins_.data() + gates[g + 1].fanin_begin;
    if (shadow != nullptr &&
        std::all_of(fanin, fanin_end, [&](SignalId f) {
          return frame.term[f] == shadow->term[f];
        })) {
      frame.term[id] = shadow->term[id];
      continue;
    }
    ins.clear();
    for (const SignalId* f = fanin; f != fanin_end; ++f) {
      ins.push_back(frame.term[*f]);
    }
    Term y;
    switch (gates[g].type) {
      case GateType::Const0: y = Term::constant(false); break;
      case GateType::Const1: y = Term::constant(true); break;
      case GateType::Buf: y = ins[0]; break;
      case GateType::Not: y = ~ins[0]; break;
      case GateType::And: y = make_and(solver, ins); break;
      case GateType::Nand: y = ~make_and(solver, ins); break;
      case GateType::Or: y = make_or(solver, ins); break;
      case GateType::Nor: y = ~make_or(solver, ins); break;
      case GateType::Xor: y = make_xor(solver, ins); break;
      case GateType::Xnor: y = ~make_xor(solver, ins); break;
      case GateType::Mux: y = make_mux(solver, ins[0], ins[1], ins[2]); break;
      default:
        throw std::logic_error("encode_frame: unexpected gate type");
    }
    frame.term[id] = y;
  }
  return frame;
}

}  // namespace cl::cnf
