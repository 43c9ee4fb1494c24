// Unit tests for the common utilities: RNG determinism and distribution
// quality, streaming statistics, configuration parsing, the program front
// end (run_main, open_output), table formatting, time units and the ring
// buffer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/binary_io.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace nocdvfs::common {
namespace {

// ---------------------------------------------------------------- RNG ----

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.raw(), b.raw());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a.raw() == b.raw()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, StreamsAreIndependent) {
  Rng a = Rng::for_stream(7, 0);
  Rng b = Rng::for_stream(7, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a.raw() == b.raw()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, Uniform01InRangeAndCentered) {
  Rng rng(3);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(4);
  constexpr int kN = 200000;
  int hits = 0;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, UniformBelowBoundsRespected) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_below(25), 25u);
  }
  EXPECT_EQ(rng.uniform_below(0), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_below(1), 0u);
}

TEST(Rng, UniformBelowIsRoughlyUniform) {
  Rng rng(7);
  constexpr int kBuckets = 10;
  constexpr int kN = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kN; ++i) ++counts[rng.uniform_below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kN, 0.1, 0.01);
  }
}

// -------------------------------------------------------------- stats ----

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const double xs[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / 5.0;
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= 5.0;
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  EXPECT_EQ(s.count(), 5u);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all, a, b;
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(2.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(TimeWeightedAverage, PiecewiseConstantSignal) {
  TimeWeightedAverage t;
  t.set(0.0, 1.0);   // 1.0 on [0, 2)
  t.set(2.0, 3.0);   // 3.0 on [2, 4)
  EXPECT_NEAR(t.average(4.0), (1.0 * 2 + 3.0 * 2) / 4.0, 1e-12);
}

TEST(TimeWeightedAverage, SingleValue) {
  TimeWeightedAverage t;
  t.set(1.0, 7.0);
  EXPECT_DOUBLE_EQ(t.average(5.0), 7.0);
}

// ------------------------------------------------------------- config ----

TEST(Config, DeclareAndGetTyped) {
  Config c;
  c.declare_int("n", 5);
  c.declare_double("x", 1.5);
  c.declare_bool("flag", true);
  c.declare("s", "hello");
  EXPECT_EQ(c.get_int("n"), 5);
  EXPECT_DOUBLE_EQ(c.get_double("x"), 1.5);
  EXPECT_TRUE(c.get_bool("flag"));
  EXPECT_EQ(c.get_string("s"), "hello");
}

TEST(Config, ParseAssignmentOverrides) {
  Config c;
  c.declare_int("n", 5);
  c.parse_assignment("n=9");
  EXPECT_EQ(c.get_int("n"), 9);
  EXPECT_TRUE(c.was_set("n"));
}

TEST(Config, RejectsUnknownKey) {
  Config c;
  c.declare_int("n", 5);
  EXPECT_THROW(c.parse_assignment("m=3"), std::invalid_argument);
  EXPECT_THROW(c.set("m", "3"), std::out_of_range);
  EXPECT_THROW(c.get_int("m"), std::out_of_range);
}

TEST(Config, RejectsMalformedInput) {
  Config c;
  c.declare_int("n", 5);
  EXPECT_THROW(c.parse_assignment("n"), std::invalid_argument);
  EXPECT_THROW(c.parse_assignment("=5"), std::invalid_argument);
  c.set("n", "abc");
  EXPECT_THROW(c.get_int("n"), std::invalid_argument);
}

TEST(Config, BoolSpellings) {
  Config c;
  c.declare_bool("f", false);
  for (const char* t : {"true", "1", "yes", "on"}) {
    c.set("f", t);
    EXPECT_TRUE(c.get_bool("f")) << t;
  }
  for (const char* t : {"false", "0", "no", "off"}) {
    c.set("f", t);
    EXPECT_FALSE(c.get_bool("f")) << t;
  }
  c.set("f", "maybe");
  EXPECT_THROW(c.get_bool("f"), std::invalid_argument);
}

TEST(Config, DoubleList) {
  Config c;
  c.declare("xs", "0.1, 0.2,0.3");
  const auto xs = c.get_double_list("xs");
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_DOUBLE_EQ(xs[0], 0.1);
  EXPECT_DOUBLE_EQ(xs[2], 0.3);
  c.set("xs", "1,bad");
  EXPECT_THROW(c.get_double_list("xs"), std::invalid_argument);
}

TEST(Config, DoubleListEdgeCases) {
  Config c;
  // Empty string → empty list.
  c.declare("xs", "");
  EXPECT_TRUE(c.get_double_list("xs").empty());
  // Trailing comma and stray whitespace-only elements are skipped.
  c.set("xs", "0.5,1.5,");
  auto xs = c.get_double_list("xs");
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_DOUBLE_EQ(xs[1], 1.5);
  c.set("xs", " , 2.5 ,, 3.5 , ");
  xs = c.get_double_list("xs");
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_DOUBLE_EQ(xs[0], 2.5);
  EXPECT_DOUBLE_EQ(xs[1], 3.5);
  // A single bare value still parses.
  c.set("xs", "42");
  xs = c.get_double_list("xs");
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_DOUBLE_EQ(xs[0], 42.0);
}

TEST(Config, WasSetVersusRedeclare) {
  Config c;
  c.declare_int("n", 5);
  EXPECT_FALSE(c.was_set("n"));
  EXPECT_FALSE(c.was_set("missing"));  // undeclared keys are simply "not set"

  // Re-declaring an unassigned key swaps the default in place.
  c.declare_int("n", 7, "updated help");
  EXPECT_EQ(c.get_int("n"), 7);
  EXPECT_FALSE(c.was_set("n"));

  // An explicit assignment survives any later re-declare.
  c.set("n", "11");
  EXPECT_TRUE(c.was_set("n"));
  c.declare_int("n", 99);
  EXPECT_EQ(c.get_int("n"), 11);
  EXPECT_TRUE(c.was_set("n"));
}

TEST(Config, SummaryLinesSortedAndComplete) {
  Config c;
  c.declare_int("zeta", 1);
  c.declare_int("alpha", 2, "first by name");
  c.declare_int("mid", 3);
  const auto lines = c.summary_lines();
  ASSERT_EQ(lines.size(), 3u);
  // Sorted by key regardless of declaration order.
  EXPECT_EQ(lines[0].rfind("alpha", 0), 0u);
  EXPECT_EQ(lines[1].rfind("mid", 0), 0u);
  EXPECT_EQ(lines[2].rfind("zeta", 0), 0u);
  // Value and help text both appear.
  EXPECT_NE(lines[0].find("= 2"), std::string::npos);
  EXPECT_NE(lines[0].find("first by name"), std::string::npos);
}

TEST(Config, ParseArgsSkipsProgramName) {
  Config c;
  c.declare_int("a", 1);
  c.declare_int("b", 2);
  const char* argv[] = {"prog", "a=10", "b=20"};
  c.parse_args(3, argv);
  EXPECT_EQ(c.get_int("a"), 10);
  EXPECT_EQ(c.get_int("b"), 20);
}

// ------------------------------------------------------- program front end ----

TEST(RunMain, ThrowingBodyPrintsOneLineAndReturnsOne) {
  Config c;
  c.declare_int("a", 1);
  const char* argv[] = {"/some/dir/prog", "a=5"};
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = run_main(c, 2, argv, [&]() -> int {
    EXPECT_EQ(c.get_int("a"), 5);
    throw std::runtime_error("boom");
  });
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_EQ(rc, 1);
  EXPECT_EQ(err, "prog: boom\n");
}

TEST(RunMain, ParseErrorSkipsHookAndBody) {
  Config c;
  bool ran = false;
  const char* argv[] = {"prog", "nope=1"};
  testing::internal::CaptureStderr();
  const int rc = run_main(
      c, 2, argv, [&] { ran = true; return 0; }, [&] { ran = true; });
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "prog: Config: unknown key 'nope'\n");
  EXPECT_EQ(rc, 1);
  EXPECT_FALSE(ran);
}

TEST(RunMain, HelpPrintsKeysAfterTheHookAndSkipsBody) {
  Config c;
  c.declare_bool("fast", false);
  c.declare_int("n", 100, "a size");
  bool ran = false;
  const char* argv[] = {"prog", "fast=1", "help=1"};
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = run_main(
      c, 3, argv, [&] { ran = true; return 0; },
      [&] { c.declare_int("n", c.get_bool("fast") ? 25 : 100, "a size"); });
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(rc, 0);
  EXPECT_FALSE(ran);
  EXPECT_EQ(out,
            "fast = 1\n"
            "help = 1    # print declared keys and exit\n"
            "n = 25    # a size\n");
}

TEST(RunMain, BodyReturnCodePassesThrough) {
  Config c;
  const char* argv[] = {"prog"};
  EXPECT_EQ(run_main(c, 1, argv, [] { return 0; }), 0);
  EXPECT_EQ(run_main(c, 1, argv, [] { return 1; }), 1);
  EXPECT_EQ(run_main(c, 1, argv, [] { return 3; }), 3);
}

TEST(OpenOutput, CreatesParentDirectoriesOrNamesThePath) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / "nocdvfs_open_output";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "a" / "b.csv").string();
  {
    std::ofstream out = open_output(path);
    out << "x\n";
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  // A path under a regular file can be neither created nor opened.
  const std::string bad = path + "/c.csv";
  try {
    open_output(bad);
    ADD_FAILURE() << "open_output('" << bad << "') did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(bad), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------------- table ----

TEST(Table, AlignedOutputContainsCells) {
  Table t({"col", "value"});
  t.add_row({"a", "1"});
  t.add_row({"bb", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("col"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(1.0, 0), "1");
}

// ------------------------------------------------------------ strings ----

TEST(JsonQuote, EscapesQuotesBackslashesAndEveryControlByte) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("\b\f\n\r\t"), "\"\\b\\f\\n\\r\\t\"");
  EXPECT_EQ(json_quote(std::string("\0\x01\x1f", 3)), "\"\\u0000\\u0001\\u001f\"");
  // UTF-8 bytes and DEL pass through.
  EXPECT_EQ(json_quote("\xc3\xa9 \x7f"), "\"\xc3\xa9 \x7f\"");
}

// ---------------------------------------------------------- binary_io ----

TEST(BinaryIo, EncodesLittleEndianOnEveryHost) {
  unsigned char b[8] = {};
  put_le(b, std::uint16_t{0xBEEF});
  EXPECT_EQ(b[0], 0xEF);
  EXPECT_EQ(b[1], 0xBE);
  EXPECT_EQ(get_le<std::uint16_t>(b), 0xBEEF);
  put_le(b, std::uint32_t{0x01020304});
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[3], 0x01);
  EXPECT_EQ(get_le<std::uint32_t>(b), 0x01020304u);
  put_le(b, std::int32_t{-2});
  EXPECT_EQ(b[0], 0xFE);
  EXPECT_EQ(b[3], 0xFF);
  EXPECT_EQ(get_le<std::int32_t>(b), -2);
  put_le(b, std::uint64_t{0x0102030405060708});
  EXPECT_EQ(b[0], 0x08);
  EXPECT_EQ(b[7], 0x01);
  EXPECT_EQ(get_le<std::uint64_t>(b), 0x0102030405060708u);
  put_le(b, 1e9);  // IEEE-754 0x41CDCD6500000000
  const unsigned char one_ghz[8] = {0, 0, 0, 0, 0x65, 0xcd, 0xcd, 0x41};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(b[i], one_ghz[i]) << "byte " << i;
  EXPECT_EQ(get_le<double>(b), 1e9);
}

// -------------------------------------------------------------- units ----

TEST(Units, PeriodFrequencyRoundTrip) {
  EXPECT_EQ(period_ps_from_hz(1e9), 1000u);
  EXPECT_EQ(period_ps_from_hz(333e6), 3003u);
}

TEST(Units, RejectsNonPositiveOrTinyFrequencies) {
  EXPECT_THROW(period_ps_from_hz(0.0), std::invalid_argument);
  EXPECT_THROW(period_ps_from_hz(-1e9), std::invalid_argument);
  EXPECT_THROW(period_ps_from_hz(1e3), std::invalid_argument);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(ns_from_ps(1500), 1.5);
  EXPECT_DOUBLE_EQ(seconds_from_ps(1'000'000'000'000ULL), 1.0);
}

}  // namespace
}  // namespace nocdvfs::common
