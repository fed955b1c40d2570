#include "cnf/encoder.hpp"

#include <gtest/gtest.h>

#include "netlist/bench_io.hpp"
#include "sim/bit_sim.hpp"
#include "util/rng.hpp"

namespace cl::cnf {
namespace {

using netlist::Netlist;
using netlist::SignalId;
using sat::Lit;
using sat::Result;
using sat::Solver;
using sat::Var;

/// Property: for random input assignments, constraining the frame inputs to
/// those constants forces every signal term to the simulator's value.
void check_encoding_matches_sim(const Netlist& nl, std::uint64_t seed) {
  util::Rng rng(seed);
  Solver solver;
  const Frame frame = encode_frame(solver, nl);
  sim::BitSim sim(nl);

  for (int trial = 0; trial < 16; ++trial) {
    std::vector<Lit> assumptions;
    for (SignalId i : nl.inputs()) {
      const bool v = rng.chance(1, 2);
      sim.set(i, v ? ~0ULL : 0ULL);
      assumptions.push_back(Lit(frame[i].lit().var(), !v));
    }
    for (SignalId k : nl.key_inputs()) {
      const bool v = rng.chance(1, 2);
      sim.set(k, v ? ~0ULL : 0ULL);
      assumptions.push_back(Lit(frame[k].lit().var(), !v));
    }
    // DFF outputs are frame sources too; drive them explicitly.
    // (BitSim reset state is 0 for these circuits.)
    for (SignalId d : nl.dffs()) {
      assumptions.push_back(Lit(frame[d].lit().var(), true));  // q = 0
    }
    sim.eval();
    ASSERT_EQ(solver.solve(assumptions), Result::Sat);
    for (SignalId s = 0; s < nl.size(); ++s) {
      const bool sim_val = sim.get(s) & 1ULL;
      EXPECT_EQ(model_value(solver, frame[s]), sim_val)
          << nl.signal_name(s) << " trial " << trial;
    }
  }
}

TEST(Encoder, AllGateTypesMatchSimulation) {
  const char* text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n1 = NOT(a)
n2 = AND(a, b, c)
n3 = NAND(a, b)
n4 = OR(n1, n2)
n5 = NOR(b, c)
n6 = XOR(a, b, c)
n7 = XNOR(n3, n4)
n8 = MUX(a, n5, n6)
n9 = BUF(n7)
y = AND(n8, n9)
)";
  check_encoding_matches_sim(netlist::read_bench_string(text, "gates"), 11);
}

TEST(Encoder, SequentialFrameExposesStateSources) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
q = DFF(d)
d = XOR(q, a)
y = NOT(q)
)";
  check_encoding_matches_sim(netlist::read_bench_string(text, "seq"), 13);
}

TEST(Encoder, ConstantsForced) {
  Netlist nl("c");
  const SignalId one = nl.add_const(true, "one");
  const SignalId zero = nl.add_const(false, "zero");
  const SignalId y = nl.add_and(one, zero, "y");
  nl.add_output(y);
  Solver solver;
  const Frame frame = encode_frame(solver, nl);
  // Constants fold: no variable, no clause.
  EXPECT_EQ(frame[one], Term::constant(true));
  EXPECT_EQ(frame[zero], Term::constant(false));
  EXPECT_EQ(frame[y], Term::constant(false));
  EXPECT_EQ(solver.num_vars(), 0);
  ASSERT_EQ(solver.solve(), Result::Sat);
  EXPECT_TRUE(model_value(solver, frame[one]));
  EXPECT_FALSE(model_value(solver, frame[zero]));
  EXPECT_FALSE(model_value(solver, frame[y]));
}

TEST(Encoder, SharedSourceVarsTieFramesTogether) {
  // Two frames with the same key var: forcing the key in frame A fixes the
  // corresponding signal in frame B.
  const char* text = R"(
INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
y = XOR(a, keyinput0)
)";
  const Netlist nl = netlist::read_bench_string(text, "k");
  Solver solver;
  const Var key = solver.new_var();
  FrameSources src_a;
  src_a.keys = {Term::var(key)};
  FrameSources src_b;
  src_b.keys = {Term::var(key)};
  const Frame fa = encode_frame(solver, nl, src_a);
  const Frame fb = encode_frame(solver, nl, src_b);
  const SignalId y = nl.find("y");
  const SignalId a = nl.find("a");
  // a_A=0, y_A=1 => key=1 ; then a_B=1 must give y_B=0.
  std::vector<Lit> assumptions{~fa[a].lit(), fa[y].lit(), fb[a].lit()};
  ASSERT_EQ(solver.solve(assumptions), Result::Sat);
  EXPECT_TRUE(solver.model_value(key));
  EXPECT_FALSE(model_value(solver, fb[y]));
}

TEST(Encoder, SourceArityMismatchRejected) {
  const Netlist nl = netlist::read_bench_string("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
  Solver solver;
  FrameSources src;
  src.inputs = {Term::var(solver.new_var()),
                Term::var(solver.new_var())};  // too many
  EXPECT_THROW(encode_frame(solver, nl, src), std::invalid_argument);
}

}  // namespace
}  // namespace cl::cnf
