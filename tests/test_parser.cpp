#include "spice/parser.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "spice/devices.hpp"

namespace samurai::spice {
namespace {

TEST(SpiceValue, PlainNumbers) {
  EXPECT_DOUBLE_EQ(parse_spice_value("42"), 42.0);
  EXPECT_DOUBLE_EQ(parse_spice_value("-3.5"), -3.5);
  EXPECT_DOUBLE_EQ(parse_spice_value("1e-9"), 1e-9);
}

TEST(SpiceValue, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_value("2.2k"), 2200.0);
  EXPECT_DOUBLE_EQ(parse_spice_value("10MEG"), 1e7);
  EXPECT_DOUBLE_EQ(parse_spice_value("5m"), 5e-3);
  EXPECT_DOUBLE_EQ(parse_spice_value("3u"), 3e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("7n"), 7e-9);
  EXPECT_DOUBLE_EQ(parse_spice_value("1p"), 1e-12);
  EXPECT_DOUBLE_EQ(parse_spice_value("2f"), 2e-15);
  EXPECT_DOUBLE_EQ(parse_spice_value("4g"), 4e9);
  EXPECT_DOUBLE_EQ(parse_spice_value("1t"), 1e12);
}

TEST(SpiceValue, SuffixWithUnitLetters) {
  EXPECT_DOUBLE_EQ(parse_spice_value("10pF"), 1e-11);
  EXPECT_DOUBLE_EQ(parse_spice_value("2.2kohm"), 2200.0);
}

TEST(SpiceValue, GarbageThrows) {
  EXPECT_THROW(parse_spice_value(""), std::invalid_argument);
  EXPECT_THROW(parse_spice_value("abc"), std::invalid_argument);
  EXPECT_THROW(parse_spice_value("1.5x"), std::invalid_argument);
}

TEST(Parser, TitleCommentsAndContinuations) {
  const auto parsed = parse_netlist(
      "my divider\n"
      "* a comment\n"
      "V1 in 0 DC 10 ; trailing comment\n"
      "R1 in mid\n"
      "+ 1k\n"
      "R2 mid 0 3k\n"
      ".end\n");
  EXPECT_EQ(parsed.title, "my divider");
  EXPECT_EQ(parsed.circuit->num_nodes(), 2u);
  EXPECT_EQ(parsed.circuit->devices().size(), 3u);
  EXPECT_FALSE(parsed.has_tran);
}

TEST(Parser, DcDividerSolvesCorrectly) {
  const auto result = run_netlist(
      "divider\n"
      "V1 in 0 DC 10\n"
      "R1 in mid 1k\n"
      "R2 mid 0 3k\n"
      ".end\n");
  EXPECT_NEAR(result.voltage_samples("mid")[0], 7.5, 1e-6);
}

TEST(Parser, RcTransientMatchesAnalytic) {
  const auto result = run_netlist(
      "rc\n"
      "Vin in 0 PWL(0 0 1n 0 1.01n 1 20n 1)\n"
      "R1 in out 1k\n"
      "C1 out 0 1p\n"
      ".tran 10p 8n\n"
      ".end\n");
  const double tau = 1e3 * 1e-12;
  const double expected = 1.0 - std::exp(-(5e-9 - 1.01e-9) / tau);
  EXPECT_NEAR(result.voltage_at("out", 5e-9), expected, 0.02);
}

TEST(Parser, CurrentSourcePwlCornersAreLandedExactly) {
  // Injected RTN sources are grid-sampled, but an I card's corners are
  // breakpoints, as a V card's are: each is a time step, not a value read
  // between two steps.
  const auto result = run_netlist(
      "pwl current\n"
      "I1 0 a PWL(0 0 1.234n 0 1.254n 1m 3.777n 1m 3.797n 0)\n"
      "R1 a 0 1k\n"
      "C1 a 0 1p\n"
      ".tran 50p 6n\n"
      ".end\n");
  const auto& times = result.times();
  for (const char* corner : {"1.234n", "1.254n", "3.777n", "3.797n"}) {
    const double t = parse_spice_value(corner);
    EXPECT_NE(std::find(times.begin(), times.end(), t), times.end()) << corner;
  }
}

TEST(Parser, PulseSourceAndCaseInsensitiveNodes) {
  const auto parsed = parse_netlist(
      "pulse test\n"
      "VCK CLK 0 PULSE(0 1 1n 0.1n 2n 0.1n 5n)\n"
      "R1 clk 0 1k\n"
      ".end\n");
  // "CLK" and "clk" are the same node.
  EXPECT_EQ(parsed.circuit->num_nodes(), 1u);
}

TEST(Parser, MosfetInverterFromText) {
  const auto result = run_netlist(
      "inverter\n"
      "Vdd vdd 0 DC 1.2\n"
      "Vin in 0 DC 0\n"
      "MN out in 0 0 nfet W=440n L=90n\n"
      "MP out in vdd vdd pfet W=880n L=90n\n"
      ".model nfet nmos node=90nm\n"
      ".model pfet pmos node=90nm\n"
      ".end\n");
  EXPECT_NEAR(result.voltage_samples("out")[0], 1.2, 0.02);
}

TEST(Parser, ModelVthShiftIsApplied) {
  const auto parsed = parse_netlist(
      "shifted\n"
      "M1 d g 0 0 slow W=200n L=90n\n"
      ".model slow nmos node=90nm vth_shift=0.05\n"
      ".end\n");
  auto* fet = parsed.circuit->find<Mosfet>("M1");
  ASSERT_NE(fet, nullptr);
  const auto tech = physics::technology("90nm");
  EXPECT_NEAR(fet->model().v_th(), tech.v_th0() + 0.05, 1e-12);
}

TEST(Parser, NodesetAndPrintDirectives) {
  const auto parsed = parse_netlist(
      "directives\n"
      "V1 a 0 DC 1\n"
      "R1 a b 1k\n"
      "R2 b 0 1k\n"
      ".nodeset v(b)=0.4\n"
      ".tran 1p 1n\n"
      ".print v(a) v(b)\n"
      ".end\n");
  ASSERT_TRUE(parsed.has_tran);
  EXPECT_DOUBLE_EQ(parsed.tran.dc.nodeset.at("b"), 0.4);
  ASSERT_EQ(parsed.print_nodes.size(), 2u);
  EXPECT_EQ(parsed.print_nodes[0], "a");
  EXPECT_EQ(parsed.print_nodes[1], "b");
}

TEST(Parser, ErrorsCarryLineNumbers) {
  const std::pair<const char*, std::size_t> cases[] = {
      {"t\nR1 a 0\n.end\n", 2},  // missing value
      // Checked once every card is in, but still reported at the card.
      {"t\nR1 a 0 1k\n.rtn M9\n.end\n", 3},  // names no MOSFET
      {"t\nR1 a 0 1k\n\n.print v(a) v(zzz)\n.end\n", 4},  // unknown node
  };
  for (const auto& [deck, line] : cases) {
    try {
      parse_netlist(deck);
      ADD_FAILURE() << "expected ParseError: " << deck;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
  }
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_THROW(parse_netlist("t\nX1 a b c\n.end\n"), ParseError);  // unknown card
  EXPECT_THROW(parse_netlist("t\n.frobnicate\n.end\n"), ParseError);
  EXPECT_THROW(parse_netlist("t\nR1 a 0 1k\n.end\nR2 b 0 1k\n"), ParseError);
  EXPECT_THROW(parse_netlist("t\nM1 d g s b nosuch W=1u L=1u\n.end\n"),
               ParseError);
  EXPECT_THROW(parse_netlist("t\n.model m nmos node=7nm\nM1 d g s b m\n.end\n"),
               ParseError);
  EXPECT_THROW(parse_netlist("t\nV1 a 0 PWL(0 0 1n)\n.end\n"), ParseError);
  EXPECT_THROW(parse_netlist("t\nR1 a 0 1k\n.print v(zzz)\n.end\n"), ParseError);
  EXPECT_THROW(parse_netlist("t\n+ 1k\n.end\n"), ParseError);
}

TEST(Parser, SramCellDeckWritesCorrectly) {
  // A full 6T cell written as text: write 1 then hold; Q must finish high.
  const char* deck = R"(6t write test
Vdd vdd 0 DC 1.2
Vwl wl 0 PWL(0 0 0.4n 0 0.45n 1.2 1.4n 1.2 1.45n 0 3n 0)
Vbl bl 0 DC 1.2
Vblb blb 0 PWL(0 1.2 0.1n 1.2 0.15n 0 1.6n 0 1.65n 1.2 3n 1.2)
M1 bl wl q 0 nfet W=264n L=90n
M2 blb wl qb 0 nfet W=264n L=90n
M3 q qb vdd vdd pfet W=220n L=90n
M4 qb q vdd vdd pfet W=220n L=90n
M5 qb q 0 0 nfet W=440n L=90n
M6 q qb 0 0 nfet W=440n L=90n
.model nfet nmos node=90nm
.model pfet pmos node=90nm
.nodeset v(q)=0 v(qb)=1.2 v(vdd)=1.2 v(bl)=1.2 v(blb)=1.2
.tran 5p 3n
.print v(q) v(qb)
.end
)";
  const auto result = run_netlist(deck);
  EXPECT_GT(result.voltage_at("q", 2.9e-9), 1.0);
  EXPECT_LT(result.voltage_at("qb", 2.9e-9), 0.2);
}

TEST(Parser, RtnCardParsesAndValidates) {
  const char* deck = R"(rtn cards
Vd d 0 DC 1.0
Vg g 0 DC 1.0
M1 d g 0 0 nfet W=200n L=90n
.model nfet nmos node=90nm
.rtn M1 scale=30 seed=7
.tran 10p 2n
.end
)";
  const auto parsed = parse_netlist(deck);
  ASSERT_EQ(parsed.rtn_requests.size(), 1u);
  EXPECT_EQ(parsed.rtn_requests[0].device, "M1");
  EXPECT_DOUBLE_EQ(parsed.rtn_requests[0].scale, 30.0);
  EXPECT_EQ(parsed.rtn_requests[0].seed, 7u);
  EXPECT_THROW(parse_netlist("t\nR1 a 0 1k\n.rtn M9\n.end\n"), ParseError);
  EXPECT_THROW(parse_netlist("t\nR1 a 0 1k\n.rtn R1 bogus=1\n.end\n"),
               ParseError);
}

/// `.rtn` card text on line 4 of a one-MOSFET deck.
std::string rtn_deck(const std::string& card) {
  return "rtn card\nVg g 0 DC 1.0\nM1 g g 0 0 nfet W=200n L=90n\n" + card +
         "\n.model nfet nmos node=90nm\n.tran 10p 2n\n.end\n";
}

void expect_parse_error_on_line(const std::string& deck, std::size_t line) {
  try {
    parse_netlist(deck);
    ADD_FAILURE() << "no ParseError for:\n" << deck;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
  }
}

TEST(Parser, RtnSeedMustBeAnUnsigned64BitInteger) {
  EXPECT_EQ(parse_netlist(rtn_deck(".rtn M1 seed=18446744073709551615"))
                .rtn_requests[0]
                .seed,
            18446744073709551615u);
  for (const char* seed : {"-3", "1e30", "7.9", "18446744073709551616", "7k",
                           "+7", "0x10", ""}) {
    SCOPED_TRACE(seed);
    expect_parse_error_on_line(rtn_deck(std::string(".rtn M1 seed=") + seed), 4);
  }
}

TEST(Parser, RtnScaleMustBeFinite) {
  EXPECT_DOUBLE_EQ(
      parse_netlist(rtn_deck(".rtn M1 scale=2k")).rtn_requests[0].scale, 2e3);
  for (const char* scale : {"nan", "inf", "-inf", "1e400", "bogus"}) {
    SCOPED_TRACE(scale);
    expect_parse_error_on_line(rtn_deck(std::string(".rtn M1 scale=") + scale),
                               4);
  }
}

TEST(Parser, RtnCardRepeatedForADeviceIsRejected) {
  // A second card would add a second Irtn source and double the injection.
  const std::string deck =
      "rtn card\nVg g 0 DC 1.0\nM1 g g 0 0 nfet W=200n L=90n\n"
      ".rtn M1 seed=1\n.model nfet nmos node=90nm\n.rtn M1 seed=2\n"
      ".tran 10p 2n\n.end\n";
  expect_parse_error_on_line(deck, 6);
}

TEST(RtnIntegration, NetlistRtnFlowProducesTraces) {
  // A common-source stage at constant bias with RTN on its transistor:
  // both runs must complete, traces must carry traps, and the output node
  // must visibly deviate at some point once the scaled RTN kicks in.
  const char* deck = R"(rtn flow
Vd d 0 DC 1.0
Vg g 0 DC 1.0
Rload d out 10k
Cout out 0 1p
M1 out g 0 0 nfet W=110n L=90n
.model nfet nmos node=90nm
.rtn M1 scale=50 seed=11
.tran 10p 40n
.end
)";
  const auto result = run_netlist_rtn(deck);
  ASSERT_EQ(result.traces.size(), 1u);
  EXPECT_GT(result.traces[0].traps.size(), 10u);
  double max_dev = 0.0;
  for (double t = 5e-9; t < 40e-9; t += 0.5e-9) {
    max_dev = std::max(max_dev, std::abs(result.with_rtn.voltage_at("out", t) -
                                         result.nominal.voltage_at("out", t)));
  }
  EXPECT_GT(max_dev, 1e-4);
}

TEST(RtnIntegration, RequiresTranAndRtnCards) {
  EXPECT_THROW(run_netlist_rtn("t\nR1 a 0 1k\n.rtn R1\n.end\n"),
               ParseError);  // .rtn on a non-MOSFET
  EXPECT_THROW(
      run_netlist_rtn("t\nVg g 0 DC 1\nM1 g g 0 0 m W=1u L=90n\n"
                      ".model m nmos node=90nm\n.rtn M1\n.end\n"),
      std::invalid_argument);  // no .tran
  EXPECT_THROW(
      run_netlist_rtn("t\nVg g 0 DC 1\nM1 g g 0 0 m W=1u L=90n\n"
                      ".model m nmos node=90nm\n.tran 1p 1n\n.end\n"),
      std::invalid_argument);  // no .rtn
}

TEST(RtnIntegration, ExtractDeviceBiasConventions) {
  // A diode-connected NMOS at 1 V: extracted V_gs ~ 1 V, I_d > 0.
  auto parsed = parse_netlist(
      "bias\n"
      "Vd d 0 DC 1.0\n"
      "M1 d d 0 0 nfet W=220n L=90n\n"
      ".model nfet nmos node=90nm\n"
      ".tran 10p 1n\n"
      ".end\n");
  auto result = transient(*parsed.circuit, parsed.tran);
  auto* fet = parsed.circuit->find<Mosfet>("M1");
  ASSERT_NE(fet, nullptr);
  core::Pwl v_gs, i_d;
  extract_device_bias(result, *parsed.circuit, *fet, v_gs, i_d);
  EXPECT_NEAR(v_gs.eval(0.9e-9), 1.0, 1e-3);
  EXPECT_GT(i_d.eval(0.9e-9), 0.0);
}

}  // namespace
}  // namespace samurai::spice
