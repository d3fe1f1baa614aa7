#include <gtest/gtest.h>

#include <sstream>

#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/grid.hpp"
#include "util/table.hpp"

namespace samurai::util {
namespace {

// ---------------------------------------------------------------- Table

TEST(Table, PrintsAlignedColumnsAndRule) {
  Table table({"name", "value"});
  table.add_row({std::string("x"), 1.5});
  table.add_row({std::string("longer"), 2.25});
  std::ostringstream oss;
  table.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({1.0}), std::invalid_argument);
}

TEST(Table, EmptyHeadersThrow) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table table({"a,b", "c"});
  table.add_row({std::string("he said \"hi\""), 1LL});
  std::ostringstream oss;
  table.write_csv(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, IntegerCellsRenderWithoutDecimals) {
  Table table({"n"});
  table.add_row({42LL});
  std::ostringstream oss;
  table.write_csv(oss);
  EXPECT_NE(oss.str().find("42\n"), std::string::npos);
}

// ----------------------------------------------------------------- grids

TEST(Grid, LinspaceEndpointsAndSpacing) {
  const auto g = linspace(0.0, 1.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 1.0);
  EXPECT_DOUBLE_EQ(g[1], 0.25);
}

TEST(Grid, LinspaceSinglePoint) {
  const auto g = linspace(3.0, 9.0, 1);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_DOUBLE_EQ(g[0], 3.0);
}

TEST(Grid, LinspaceZeroThrows) {
  EXPECT_THROW(linspace(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Grid, LogspaceIsGeometric) {
  const auto g = logspace(1.0, 1000.0, 4);
  ASSERT_EQ(g.size(), 4u);
  EXPECT_NEAR(g[0], 1.0, 1e-12);
  EXPECT_NEAR(g[1], 10.0, 1e-9);
  EXPECT_NEAR(g[3], 1000.0, 1e-6);
}

TEST(Grid, LogspaceRejectsNonPositive) {
  EXPECT_THROW(logspace(0.0, 10.0, 3), std::invalid_argument);
  EXPECT_THROW(logspace(-1.0, 10.0, 3), std::invalid_argument);
}

TEST(Grid, InterpLinearInteriorAndClamping) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const std::vector<double> ys = {0.0, 10.0, 0.0};
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 1.5), 5.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(interp_linear(xs, ys, 5.0), 0.0);
}

TEST(Grid, SummarizeStats) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  const auto s = summarize(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.variance, 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(Grid, SummarizeEmpty) {
  const auto s = summarize(std::span<const double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Grid, TrapezoidIntegratesLine) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const std::vector<double> ys = {0.0, 1.0, 2.0};  // y = x
  EXPECT_DOUBLE_EQ(trapezoid(xs, ys), 2.0);
}

// ------------------------------------------------------------------- Cli

TEST(Cli, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--alpha", "1.5", "pos1", "--beta=hello", "--flag"};
  Cli cli(6, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(cli.get_string("beta", ""), "hello");
  EXPECT_TRUE(cli.has("flag"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_EQ(cli.get_seed("seed", 99u), 99u);
  EXPECT_FALSE(cli.has("n"));
}

TEST(Cli, BadNumberThrows) {
  const char* argv[] = {"prog", "--n=abc", "--x=1.5x", "--k=7k",
                        "--neg=-3", "--tail=12abc", "--empty="};
  Cli cli(7, argv);
  EXPECT_THROW(cli.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("n", 0.0), std::invalid_argument);
  // Trailing junk after a valid prefix is an error, not the prefix.
  EXPECT_THROW(cli.get_double("x", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("k", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_count("k", 1), std::invalid_argument);
  EXPECT_THROW(cli.get_seed("tail", 0), std::invalid_argument);
  // A signed seed would wrap around instead of failing.
  EXPECT_THROW(cli.get_seed("neg", 0), std::invalid_argument);
  EXPECT_EQ(cli.get_int("neg", 0), -3);
  EXPECT_THROW(cli.get_seed("empty", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("empty", 0.0), std::invalid_argument);
  try {
    cli.get_double("x", 0.0);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--x"), std::string::npos);
  }
}

TEST(Cli, RequireDeclaredNamesTheFirstUnknownOption) {
  const char* argv[] = {"prog", "--reps", "3", "--activity=schur", "--quick",
                        "--zeta", "1"};
  Cli cli(7, argv);
  EXPECT_NO_THROW(
      cli.require_declared({"quick", "reps", "activity", "zeta"}));
  try {
    cli.require_declared({"quick", "reps"});
    ADD_FAILURE() << "an undeclared option must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unknown option --activity");
  }
  const char* bare[] = {"prog", "positional"};
  EXPECT_NO_THROW(Cli(2, bare).require_declared({}));
}

TEST(Cli, CountRejectsNonPositiveValues) {
  const char* argv[] = {"prog", "--reps=0", "--passes=-3", "--ok=2"};
  Cli cli(4, argv);
  EXPECT_THROW(cli.get_count("reps", 5), std::invalid_argument);
  EXPECT_THROW(cli.get_count("passes", 5), std::invalid_argument);
  EXPECT_EQ(cli.get_count("ok", 5), 2);
  EXPECT_EQ(cli.get_count("absent", 5), 5);
}

TEST(Cli, UnsignedRejectsNegativeValues) {
  const char* argv[] = {"prog", "--shard=-1", "--cap=0", "--n=12"};
  Cli cli(4, argv);
  EXPECT_THROW(cli.get_u64("shard", 5), std::invalid_argument);
  try {
    cli.get_u64("shard", 5);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--shard"), std::string::npos);
  }
  EXPECT_EQ(cli.get_u64("cap", 5), 0u);
  EXPECT_EQ(cli.get_u64("n", 5), 12u);
  EXPECT_EQ(cli.get_u64("absent", 5), 5u);
}

TEST(Cli, HexSeedParses) {
  const char* argv[] = {"prog", "--seed=0xff"};
  Cli cli(2, argv);
  EXPECT_EQ(cli.get_seed("seed", 0), 255u);
}

// ------------------------------------------------------------ ascii plot

TEST(AsciiPlot, RendersSeriesAndLegend) {
  Series s;
  s.name = "line";
  for (int i = 0; i <= 10; ++i) {
    s.x.push_back(i);
    s.y.push_back(i * i);
  }
  std::ostringstream oss;
  PlotOptions options;
  options.title = "Parabola";
  plot(oss, {s}, options);
  const std::string out = oss.str();
  EXPECT_NE(out.find("Parabola"), std::string::npos);
  EXPECT_NE(out.find("* = line"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiPlot, LogAxesSkipNonPositive) {
  Series s;
  s.name = "psd";
  s.x = {0.0, 1.0, 10.0, 100.0};
  s.y = {-1.0, 1.0, 0.1, 0.01};
  std::ostringstream oss;
  PlotOptions options;
  options.log_x = true;
  options.log_y = true;
  plot(oss, {s}, options);
  EXPECT_NE(oss.str().find('*'), std::string::npos);
}

TEST(AsciiPlot, EmptyDataReportsGracefully) {
  std::ostringstream oss;
  plot(oss, {}, PlotOptions{});
  EXPECT_NE(oss.str().find("no plottable data"), std::string::npos);
}

}  // namespace
}  // namespace samurai::util
