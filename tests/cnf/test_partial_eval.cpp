// Differential guard for the partially evaluating CNF layer: on small random
// sequential netlists (every GateType, multi-fanin NAND/XNOR, constants, X
// power-up, at most 10 key bits) the folded encodings must agree with
// brute-force simulation under sim::ReferenceSim, key by key. Also the
// time-frame unrolling cases: frames chained through encode_frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "cnf/encoder.hpp"
#include "cnf/miter.hpp"
#include "netlist/bench_io.hpp"
#include "sim/reference_sim.hpp"
#include "sim/sequence.hpp"
#include "util/rng.hpp"

namespace cl::cnf {
namespace {

using netlist::DffInit;
using netlist::GateType;
using netlist::Netlist;
using netlist::SignalId;
using sat::Lit;
using sat::Result;
using sat::Solver;
using sat::Var;

/// Random sequential netlist: `gates` gates whose first nine cover every
/// combinational GateType, fanins drawn from every earlier signal (inputs,
/// keys, both constants, DFF outputs, gates), DFF power-ups drawn from
/// Zero/One/X, two or three outputs.
Netlist random_netlist(util::Rng& rng, std::size_t num_inputs,
                       std::size_t num_keys, std::size_t num_dffs,
                       std::size_t gates) {
  Netlist nl("rand");
  std::vector<SignalId> pool;
  for (std::size_t i = 0; i < num_inputs; ++i) {
    pool.push_back(nl.add_input("i" + std::to_string(i)));
  }
  for (std::size_t k = 0; k < num_keys; ++k) {
    pool.push_back(nl.add_key_input("keyinput" + std::to_string(k)));
  }
  pool.push_back(nl.add_const(false, "zero"));
  pool.push_back(nl.add_const(true, "one"));
  const DffInit inits[] = {DffInit::Zero, DffInit::One, DffInit::X};
  for (std::size_t d = 0; d < num_dffs; ++d) {
    pool.push_back(nl.add_dff(netlist::k_no_signal, inits[rng.next_below(3)],
                              "q" + std::to_string(d)));
  }
  const GateType types[] = {GateType::Buf, GateType::Not, GateType::And,
                            GateType::Nand, GateType::Or, GateType::Nor,
                            GateType::Xor, GateType::Xnor, GateType::Mux};
  std::vector<SignalId> made;
  for (std::size_t g = 0; g < gates; ++g) {
    const GateType t = g < 9 ? types[g] : types[rng.next_below(9)];
    std::size_t arity = 2 + rng.next_below(3);
    if (t == GateType::Buf || t == GateType::Not) arity = 1;
    if (t == GateType::Mux) arity = 3;
    std::vector<SignalId> fanins;
    for (std::size_t f = 0; f < arity; ++f) {
      fanins.push_back(pool[rng.next_below(pool.size())]);
    }
    made.push_back(nl.add_gate(t, fanins, "g" + std::to_string(g)));
    pool.push_back(made.back());
  }
  for (SignalId d : nl.dffs()) {
    nl.set_dff_input(d, made[rng.next_below(made.size())]);
  }
  const std::size_t outs = 2 + rng.next_below(2);
  for (std::size_t o = 0; o < outs; ++o) {
    nl.add_output(made[made.size() / 2 + rng.next_below(made.size() / 2)]);
  }
  nl.check();
  return nl;
}

/// Every full DFF state the CNF may start from: all of them under a
/// symbolic reset, else the power-up with each X bit free.
std::vector<std::uint64_t> start_states(const Netlist& nl, bool symbolic) {
  std::uint64_t fixed = 0;
  std::uint64_t free_mask = 0;
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    const DffInit init = nl.dff_init(nl.dffs()[i]);
    if (symbolic || init == DffInit::X) free_mask |= 1ULL << i;
    if (!symbolic && init == DffInit::One) fixed |= 1ULL << i;
  }
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = 0; s < (1ULL << nl.dffs().size()); ++s) {
    if ((s & ~free_mask) == fixed) out.push_back(s);
  }
  return out;
}

/// A copy of `nl` that powers up to `state` (bit i -> nl.dffs()[i]).
Netlist with_power_up(const Netlist& nl, std::uint64_t state) {
  Netlist out = nl.clone("start");
  for (std::size_t i = 0; i < nl.dffs().size(); ++i) {
    out.set_dff_init(nl.dffs()[i],
                     (state >> i) & 1 ? DffInit::One : DffInit::Zero);
  }
  return out;
}

/// Output trace of `nl` from its power-up under every key: result[key][t]
/// packs frame t's outputs (bit o = output o). 64 keys per ReferenceSim pass.
std::vector<std::vector<std::uint64_t>> traces_per_key(
    const Netlist& nl, const std::vector<sim::BitVec>& inputs) {
  const std::size_t num_keys = std::size_t{1} << nl.key_inputs().size();
  std::vector<std::vector<std::uint64_t>> out(
      num_keys, std::vector<std::uint64_t>(inputs.size(), 0));
  sim::ReferenceSim sim(nl);
  for (std::size_t base = 0; base < num_keys; base += 64) {
    sim.reset();
    for (std::size_t k = 0; k < nl.key_inputs().size(); ++k) {
      std::uint64_t word = 0;
      for (std::size_t lane = 0; lane < 64; ++lane) {
        if (((base + lane) >> k) & 1) word |= 1ULL << lane;
      }
      sim.set(nl.key_inputs()[k], word);
    }
    for (std::size_t t = 0; t < inputs.size(); ++t) {
      for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        sim.set(nl.inputs()[i], inputs[t][i] ? ~0ULL : 0ULL);
      }
      sim.eval();
      for (std::size_t lane = 0; lane < 64 && base + lane < num_keys; ++lane) {
        for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
          if ((sim.get(nl.outputs()[o]) >> lane) & 1) {
            out[base + lane][t] |= 1ULL << o;
          }
        }
      }
      sim.step();
    }
  }
  return out;
}

std::vector<std::uint64_t> pack(const std::vector<sim::BitVec>& outputs) {
  std::vector<std::uint64_t> out(outputs.size(), 0);
  for (std::size_t t = 0; t < outputs.size(); ++t) {
    for (std::size_t o = 0; o < outputs[t].size(); ++o) {
      if (outputs[t][o]) out[t] |= 1ULL << o;
    }
  }
  return out;
}

std::vector<Lit> key_assumptions(const std::vector<Var>& vars,
                                 std::uint64_t key) {
  std::vector<Lit> out;
  for (std::size_t k = 0; k < vars.size(); ++k) {
    out.push_back(Lit(vars[k], ((key >> k) & 1) == 0));
  }
  return out;
}

sim::BitVec key_bits(std::uint64_t key, std::size_t width) {
  sim::BitVec out(width);
  for (std::size_t k = 0; k < width; ++k) out[k] = (key >> k) & 1;
  return out;
}

struct Fact {
  std::vector<sim::BitVec> inputs;
  std::vector<sim::BitVec> outputs;
};

// Facts from one run under a random key and start state, some with a
// flipped output bit. For every key, the facts plus key units are SAT iff
// simulation under that key reproduces them: from one shared start state
// under a symbolic reset, from a free X power-up per fact otherwise.
TEST(PartialEval, FactsAgreeWithSimulationForEveryKey) {
  std::size_t all_refuted = 0;
  std::size_t some_consistent = 0;
  for (std::uint64_t seed = 1; seed <= 96; ++seed) {
    util::Rng rng(seed);
    const Netlist nl =
        random_netlist(rng, 1 + rng.next_below(3), 1 + rng.next_below(10),
                       1 + rng.next_below(3), 12 + rng.next_below(12));
    const std::size_t num_keys = std::size_t{1} << nl.key_inputs().size();
    for (const bool symbolic : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (symbolic ? " symbolic" : " power-up"));
      const std::vector<std::uint64_t> starts = start_states(nl, symbolic);
      std::vector<Fact> facts;
      for (int f = 0; f < 3; ++f) {
        Fact fact;
        fact.inputs = sim::random_stimulus(rng, 1 + rng.next_below(4),
                                           nl.inputs().size());
        const Netlist run =
            with_power_up(nl, starts[rng.next_below(starts.size())]);
        const std::uint64_t key = rng.next_below(num_keys);
        fact.outputs = sim::run_sequence(
            run, fact.inputs, {key_bits(key, nl.key_inputs().size())});
        if (rng.chance(1, 3)) {
          sim::BitVec& frame = fact.outputs[rng.next_below(fact.outputs.size())];
          frame[rng.next_below(frame.size())] ^= 1;
        }
        facts.push_back(std::move(fact));
      }

      Solver solver;
      std::vector<Var> keys;
      for (std::size_t k = 0; k < nl.key_inputs().size(); ++k) {
        keys.push_back(solver.new_var());
      }
      std::vector<Var> init;
      for (std::size_t d = 0; symbolic && d < nl.dffs().size(); ++d) {
        init.push_back(solver.new_var());
      }
      for (const Fact& fact : facts) {
        constrain_key_on_sequence(solver, nl, keys, fact.inputs, fact.outputs,
                                  symbolic ? &init : nullptr);
      }

      // match[s][f][key]: from start state s, the key reproduces fact f.
      std::vector<std::vector<std::vector<bool>>> match(starts.size());
      for (std::size_t s = 0; s < starts.size(); ++s) {
        const Netlist run = with_power_up(nl, starts[s]);
        for (const Fact& fact : facts) {
          const auto traces = traces_per_key(run, fact.inputs);
          const auto want = pack(fact.outputs);
          std::vector<bool> row(num_keys);
          for (std::size_t key = 0; key < num_keys; ++key) {
            row[key] = traces[key] == want;
          }
          match[s].push_back(std::move(row));
        }
      }
      std::size_t consistent_keys = 0;
      for (std::size_t key = 0; key < num_keys; ++key) {
        bool consistent = false;
        if (symbolic) {
          for (std::size_t s = 0; s < starts.size() && !consistent; ++s) {
            consistent = true;
            for (std::size_t f = 0; f < facts.size(); ++f) {
              consistent = consistent && match[s][f][key];
            }
          }
        } else {
          consistent = true;
          for (std::size_t f = 0; f < facts.size(); ++f) {
            bool some = false;
            for (std::size_t s = 0; s < starts.size(); ++s) {
              some = some || match[s][f][key];
            }
            consistent = consistent && some;
          }
        }
        consistent_keys += consistent ? 1 : 0;
        ASSERT_EQ(solver.solve(key_assumptions(keys, key)) == Result::Sat,
                  consistent)
            << "key " << key;
      }
      all_refuted += consistent_keys == 0 ? 1 : 0;
      some_consistent += consistent_keys > 0 ? 1 : 0;
    }
  }
  // Both paths are exercised: facts that refute every key (the empty clause
  // or a key-free contradiction) and facts that leave keys standing.
  EXPECT_GT(all_refuted, 0u);
  EXPECT_GT(some_consistent, 0u);
}

// diff_within(d) is SAT iff two keys and an input sequence disagree within
// d frames from a shared start state (the symbolic reset, or the power-up
// with X bits free), and each model's keys and sequence disagree in
// simulation.
TEST(PartialEval, MiterAgreesWithBruteForceKeyPairs) {
  std::size_t sat_models = 0;
  std::size_t unsat_depths = 0;
  for (std::uint64_t seed = 101; seed <= 164; ++seed) {
    util::Rng rng(seed);
    const Netlist nl =
        random_netlist(rng, 1 + rng.next_below(2), 1 + rng.next_below(4),
                       1 + rng.next_below(3), 10 + rng.next_below(10));
    const std::size_t ni = nl.inputs().size();
    const std::size_t nk = nl.key_inputs().size();
    const std::size_t depth = 3;
    for (const bool symbolic : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (symbolic ? " symbolic" : " power-up"));
      // differs[d-1]: some start state and sequence separate two keys
      // within d frames (every length-3 sequence covers its prefixes).
      std::vector<Netlist> runs;
      for (const std::uint64_t s : start_states(nl, symbolic)) {
        runs.push_back(with_power_up(nl, s));
      }
      bool differs[depth] = {false, false, false};
      for (const Netlist& run : runs) {
        for (std::uint64_t code = 0; code < (1ULL << (depth * ni)); ++code) {
          std::vector<sim::BitVec> seq(depth, sim::BitVec(ni));
          for (std::size_t t = 0; t < depth; ++t) {
            for (std::size_t i = 0; i < ni; ++i) {
              seq[t][i] = (code >> (t * ni + i)) & 1;
            }
          }
          const auto traces = traces_per_key(run, seq);
          for (const auto& trace : traces) {
            for (std::size_t d = 1; d <= depth; ++d) {
              for (std::size_t t = 0; t < d; ++t) {
                if (trace[t] != traces[0][t]) differs[d - 1] = true;
              }
            }
          }
        }
      }

      Solver solver;
      SequentialMiter miter(solver, nl, symbolic);
      miter.extend_to(depth);
      for (std::size_t d = 1; d <= depth; ++d) {
        const Result r = solver.solve({miter.diff_within(d)});
        ASSERT_EQ(r == Result::Sat, differs[d - 1]) << "depth " << d;
        if (r != Result::Sat) {
          ++unsat_depths;
          continue;
        }
        ++sat_models;
        const sim::BitVec ka = miter.extract_key_a();
        const sim::BitVec kb = miter.extract_key_b();
        const auto seq = miter.extract_inputs(d);
        ASSERT_EQ(ka.size(), nk);
        bool disagree = false;
        for (const Netlist& run : runs) {
          const auto out_a = sim::run_sequence(run, seq, {ka});
          const auto out_b = sim::run_sequence(run, seq, {kb});
          disagree = disagree || sim::first_divergence(out_a, out_b) != -1;
        }
        EXPECT_TRUE(disagree) << "depth " << d;
        if (symbolic) {
          // The model's own reset state separates the keys.
          const sim::BitVec init =
              extract_bits(solver, miter.initial_state_vars());
          std::uint64_t state = 0;
          for (std::size_t i = 0; i < init.size(); ++i) {
            if (init[i]) state |= 1ULL << i;
          }
          const Netlist run = with_power_up(nl, state);
          EXPECT_NE(sim::first_divergence(sim::run_sequence(run, seq, {ka}),
                                          sim::run_sequence(run, seq, {kb})),
                    -1)
              << "depth " << d;
        }
      }
    }
  }
  EXPECT_GT(sat_models, 0u);
  EXPECT_GT(unsat_depths, 0u);
}

// Every folding case of the gate builders, exhaustively: inputs drawn from
// constants, two literals and their complements; the result must evaluate
// to the gate's truth table under every assignment of the two literals.
TEST(PartialEval, FoldingMatchesTruthTables) {
  enum Op { kAnd, kOr, kXor, kMux };
  for (const Op op : {kAnd, kOr, kXor, kMux}) {
    const std::size_t min_arity = op == kMux ? 3 : 1;
    for (std::size_t arity = min_arity; arity <= 3; ++arity) {
      std::size_t combos = 1;
      for (std::size_t i = 0; i < arity; ++i) combos *= 6;
      for (std::size_t code = 0; code < combos; ++code) {
        Solver solver;
        const Var x = solver.new_var();
        const Var y = solver.new_var();
        const Term choices[] = {Term::constant(false), Term::constant(true),
                                Term::var(x), ~Term::var(x),
                                Term::var(y), ~Term::var(y)};
        std::vector<std::size_t> pick;
        std::vector<Term> ins;
        for (std::size_t i = 0, c = code; i < arity; ++i, c /= 6) {
          pick.push_back(c % 6);
          ins.push_back(choices[c % 6]);
        }
        Term out;
        switch (op) {
          case kAnd: out = make_and(solver, ins); break;
          case kOr: out = make_or(solver, ins); break;
          case kXor: out = make_xor(solver, ins); break;
          case kMux: out = make_mux(solver, ins[0], ins[1], ins[2]); break;
        }
        for (int xv = 0; xv < 2; ++xv) {
          for (int yv = 0; yv < 2; ++yv) {
            const bool vals[] = {false, true, xv == 1, xv == 0, yv == 1,
                                 yv == 0};
            bool want = op == kAnd;
            if (op == kMux) {
              want = vals[pick[0]] ? vals[pick[2]] : vals[pick[1]];
            } else {
              for (const std::size_t p : pick) {
                if (op == kAnd) want = want && vals[p];
                if (op == kOr) want = want || vals[p];
                if (op == kXor) want = want != vals[p];
              }
            }
            ASSERT_EQ(solver.solve({Lit(x, xv == 0), Lit(y, yv == 0)}),
                      Result::Sat);
            EXPECT_EQ(model_value(solver, out), want)
                << "op " << op << " code " << code << " x=" << xv
                << " y=" << yv;
          }
        }
      }
    }
  }
}

// A second miter copy shares every signal its key does not reach: on a
// circuit whose key touches one gate, copy B adds exactly that gate's
// clauses plus the output comparison.
TEST(PartialEval, MiterCopyBEncodesOnlyTheKeyCone) {
  const Netlist nl = netlist::read_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(keyinput0)
OUTPUT(y)
OUTPUT(z)
n1 = AND(a, b)
n2 = OR(n1, a)
n3 = NAND(n2, b)
z = BUF(n3)
y = XOR(n3, keyinput0)
)",
                                                "cone");
  Solver solver;
  SequentialMiter miter(solver, nl);
  const int vars_before = solver.num_vars();
  miter.extend_to(1);
  // Frame 0: 2 inputs, AND, OR, NAND once; the XOR with the key once per
  // copy (keys are free, so each copy's XOR is a fresh variable); one XOR
  // for the differing output y (z is shared and skipped).
  EXPECT_EQ(solver.num_vars() - vars_before, 2 + 3 + 2 + 1);
  ASSERT_EQ(solver.solve({miter.diff_within(1)}), Result::Sat);
  EXPECT_NE(miter.extract_key_a(), miter.extract_key_b());
}

// A determined output that contradicts the oracle refutes every key with
// the empty clause, without encoding anything.
TEST(PartialEval, DeterminedMismatchAddsTheEmptyClause) {
  const Netlist nl = netlist::read_bench_string(R"(
INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
OUTPUT(z)
y = NOT(a)
z = XOR(a, keyinput0)
)",
                                                "det");
  Solver solver;
  const std::vector<Var> keys{solver.new_var()};
  constrain_key_on_sequence(solver, nl, keys, {sim::BitVec{1}},
                            {sim::BitVec{0, 1}});
  EXPECT_EQ(solver.num_vars(), 1);  // y folds, z is the key's negation
  ASSERT_EQ(solver.solve(), Result::Sat);
  EXPECT_FALSE(solver.model_value(keys[0]));
  constrain_key_on_sequence(solver, nl, keys, {sim::BitVec{1}},
                            {sim::BitVec{1, 1}});  // y must be 0
  EXPECT_EQ(solver.solve(), Result::Unsat);
}

// Every width the fact indexes is checked before any clause is added.
TEST(PartialEval, FactWidthMismatchesAreRejected) {
  const Netlist nl = netlist::read_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(keyinput0)
OUTPUT(y)
q = DFF(d)
d = XOR(a, keyinput0)
y = AND(q, b)
)",
                                                "w");
  Solver solver;
  const std::vector<Var> keys{solver.new_var()};
  const sim::BitVec in{1, 0};
  const sim::BitVec out{0};
  const auto rejects = [&](const std::vector<Var>& k,
                           const std::vector<sim::BitVec>& ins,
                           const std::vector<sim::BitVec>& outs,
                           const std::vector<Var>* init = nullptr) {
    EXPECT_THROW(constrain_key_on_sequence(solver, nl, k, ins, outs, init),
                 std::invalid_argument);
  };
  rejects(keys, {in, sim::BitVec{1}}, {out, out});         // short 2nd frame
  rejects(keys, {in, in}, {out, sim::BitVec{}});           // short output
  rejects(keys, {in}, {sim::BitVec{0, 1}});                // long output
  rejects({}, {in}, {out});                                // key count
  rejects({keys[0], keys[0]}, {in}, {out});
  const std::vector<Var> init{solver.new_var(), solver.new_var()};
  rejects(keys, {in}, {out}, &init);                       // state width
  EXPECT_EQ(solver.num_vars(), 3);
  EXPECT_EQ(solver.num_clauses(), 0u);
  EXPECT_THROW(constrain_schedule_on_sequence(solver, nl, {keys, {}}, {in, in},
                                              {out, out}),
               std::invalid_argument);
  EXPECT_THROW(constrain_schedule_on_sequence(solver, nl, {}, {in}, {out}),
               std::invalid_argument);
}

// ---- Time-frame unrolling: frames chained through encode_frame. ----

/// `depth` frames of `nl`: fresh input variables per frame, keys from
/// `keys_at(t)`, frame 0's state from `reset`, later states from the
/// previous frame's D pins. inputs[t] holds frame t's input variables.
struct Unrolled {
  std::vector<Frame> frames;
  std::vector<std::vector<Var>> inputs;

  Lit output(Solver& solver, const Netlist& nl, std::size_t t,
             std::size_t o) const {
    return to_lit(solver, frames[t][nl.outputs()[o]]);
  }
};

Unrolled unroll(Solver& solver, const Netlist& nl, std::size_t depth,
                std::vector<Term> reset,
                const std::function<std::vector<Term>(std::size_t)>& keys_at) {
  Unrolled u;
  for (std::size_t t = 0; t < depth; ++t) {
    std::vector<Var> ins;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      ins.push_back(solver.new_var());
    }
    FrameSources src;
    src.inputs = var_terms(ins);
    src.keys = keys_at(t);
    src.states = t == 0 ? reset : u.frames.back().next_state(nl);
    u.frames.push_back(encode_frame(solver, nl, std::move(src)));
    u.inputs.push_back(std::move(ins));
  }
  return u;
}

std::vector<Term> no_keys(std::size_t) { return {}; }

// 2-bit counter; output = (count == 3).
const char* k_counter = R"(
INPUT(en)
OUTPUT(hit)
q0 = DFF(d0)
q1 = DFF(d1)
d0 = XOR(q0, en)
carry = AND(q0, en)
d1 = XOR(q1, carry)
hit = AND(q0, q1)
)";

TEST(Unroller, UnrolledOutputsMatchSequentialSim) {
  const Netlist nl = netlist::read_bench_string(k_counter, "cnt");
  util::Rng rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t depth = 1 + rng.next_below(6);
    const auto stim = sim::random_stimulus(rng, depth, nl.inputs().size());
    const auto expected = sim::run_sequence(nl, stim);

    Solver solver;
    const Unrolled u =
        unroll(solver, nl, depth, power_up_state(solver, nl), no_keys);
    std::vector<Lit> assumptions;
    for (std::size_t t = 0; t < depth; ++t) {
      for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        assumptions.push_back(Lit(u.inputs[t][i], stim[t][i] == 0));
      }
    }
    ASSERT_EQ(solver.solve(assumptions), Result::Sat);
    for (std::size_t t = 0; t < depth; ++t) {
      for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
        EXPECT_EQ(model_value(solver, u.frames[t][nl.outputs()[o]]),
                  expected[t][o] != 0)
            << "trial " << trial << " frame " << t;
      }
    }
  }
}

TEST(Unroller, ReachabilityQuery) {
  // Can the counter reach hit==1 within d frames? Needs >= 4 frames of
  // en=1 from reset; at depth 3 it must be unreachable, at 4 reachable.
  const Netlist nl = netlist::read_bench_string(k_counter, "cnt");
  {
    Solver solver;
    const Unrolled u = unroll(solver, nl, 3, power_up_state(solver, nl), no_keys);
    EXPECT_EQ(solver.solve({u.output(solver, nl, 2, 0)}), Result::Unsat);
  }
  {
    Solver solver;
    const Unrolled u = unroll(solver, nl, 4, power_up_state(solver, nl), no_keys);
    ASSERT_EQ(solver.solve({u.output(solver, nl, 3, 0)}), Result::Sat);
    // The model must drive en=1 in the first 3 frames (the increments).
    for (std::size_t t = 0; t < 3; ++t) {
      EXPECT_TRUE(solver.model_value(u.inputs[t][0])) << "frame " << t;
    }
  }
}

TEST(Unroller, StaticKeysSharedAcrossFrames) {
  const char* locked = R"(
INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
q = DFF(d)
d = XOR(a, keyinput0)
y = BUF(q)
)";
  const Netlist nl = netlist::read_bench_string(locked, "lk");
  Solver solver;
  const Var key = solver.new_var();
  const Unrolled u =
      unroll(solver, nl, 2, power_up_state(solver, nl),
             [&](std::size_t) { return std::vector<Term>{Term::var(key)}; });
  const SignalId k = nl.key_inputs()[0];
  EXPECT_EQ(u.frames[0][k], u.frames[1][k]);
  // Force key=1 and a=0 at both frames: y@0 = q init 0, y@1 = d@0 = 1.
  std::vector<Lit> assume{sat::pos(key), sat::neg(u.inputs[0][0]),
                          sat::neg(u.inputs[1][0])};
  ASSERT_EQ(solver.solve(assume), Result::Sat);
  EXPECT_FALSE(model_value(solver, u.frames[0][nl.outputs()[0]]));
  EXPECT_TRUE(model_value(solver, u.frames[1][nl.outputs()[0]]));
}

TEST(Unroller, PerFrameKeysAreIndependent) {
  const char* locked = R"(
INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
y = XOR(a, keyinput0)
)";
  const Netlist nl = netlist::read_bench_string(locked, "lk2");
  Solver solver;
  const std::vector<Var> keys{solver.new_var(), solver.new_var()};
  const Unrolled u = unroll(solver, nl, 2, power_up_state(solver, nl),
                            [&](std::size_t t) {
                              return std::vector<Term>{Term::var(keys[t])};
                            });
  const SignalId k = nl.key_inputs()[0];
  EXPECT_NE(u.frames[0][k], u.frames[1][k]);
  // key@0=0, key@1=1, a=1 both frames: y@0=1, y@1=0.
  std::vector<Lit> assume{sat::neg(keys[0]), sat::pos(keys[1]),
                          sat::pos(u.inputs[0][0]), sat::pos(u.inputs[1][0])};
  ASSERT_EQ(solver.solve(assume), Result::Sat);
  EXPECT_TRUE(model_value(solver, u.frames[0][nl.outputs()[0]]));
  EXPECT_FALSE(model_value(solver, u.frames[1][nl.outputs()[0]]));
}

TEST(Unroller, SymbolicInitialStateIsFree) {
  // With a symbolic reset, hit@0 == 1 becomes satisfiable (state 11 chosen).
  const Netlist nl = netlist::read_bench_string(k_counter, "cnt");
  Solver solver;
  const std::vector<Var> init{solver.new_var(), solver.new_var()};
  const Unrolled u = unroll(solver, nl, 1, var_terms(init), no_keys);
  ASSERT_EQ(solver.solve({u.output(solver, nl, 0, 0)}), Result::Sat);
  EXPECT_TRUE(solver.model_value(init[0]));
  EXPECT_TRUE(solver.model_value(init[1]));
}

TEST(Unroller, DffInitOneRespected) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
q = DFF(a)  # init q 1
y = BUF(q)
)";
  const Netlist nl = netlist::read_bench_string(text, "i1");
  Solver solver;
  const Unrolled u = unroll(solver, nl, 1, power_up_state(solver, nl), no_keys);
  EXPECT_EQ(u.frames[0][nl.outputs()[0]], Term::constant(true));
  EXPECT_EQ(solver.solve({~u.output(solver, nl, 0, 0)}), Result::Unsat);
}

}  // namespace
}  // namespace cl::cnf
