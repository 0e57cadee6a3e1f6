// Unit tests for pamr/util: RNG determinism and distribution sanity,
// streaming statistics, thread pool, string/CLI/CSV plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <vector>

#include "pamr/util/args.hpp"
#include "pamr/util/csv.hpp"
#include "pamr/util/rng.hpp"
#include "pamr/util/stats.hpp"
#include "pamr/util/string_util.hpp"
#include "pamr/util/thread_pool.hpp"

namespace pamr {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0;
  double hi = 0.0;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_LT(lo, 0.001);
  EXPECT_GT(hi, 0.999);
}

TEST(Rng, BelowIsUnbiasedOverSmallRange) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(7)];
  for (const int c : counts) EXPECT_NEAR(c, n / 7, n / 7 / 5);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(13);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(DeriveSeed, DistinctStreamsDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t a = 0; a < 30; ++a) {
    for (std::uint64_t b = 0; b < 30; ++b) seeds.insert(derive_seed(99, a, b));
  }
  EXPECT_EQ(seeds.size(), 900u);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(17);
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 10.0);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, CiShrinksWithSamples) {
  Rng rng(19);
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 100; ++i) small.add(rng.normal());
  for (int i = 0; i < 10000; ++i) large.add(rng.normal());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Stats, MeanAndMedian) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossLoops) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, SingleThreadedFallback) {
  ThreadPool pool(1);
  std::size_t sum = 0;  // no atomics needed: runs inline
  pool.parallel_for(50, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 1225u);
}

TEST(StringUtil, SplitTrimJoin) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(join({"x", "y"}, "+"), "x+y");
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
  EXPECT_EQ(to_lower("AbC"), "abc");
}

TEST(StringUtil, StrictParsers) {
  std::int64_t i = 0;
  EXPECT_TRUE(parse_int64("42", i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(parse_int64(" -7 ", i));
  EXPECT_EQ(i, -7);
  EXPECT_FALSE(parse_int64("12x", i));
  EXPECT_FALSE(parse_int64("", i));
  double d = 0.0;
  EXPECT_TRUE(parse_double("3.5e2", d));
  EXPECT_DOUBLE_EQ(d, 350.0);
  EXPECT_FALSE(parse_double("3.5 junk", d));
}

TEST(StringUtil, Formatters) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_bandwidth_mbps(2500.0), "2.50 Gb/s");
  EXPECT_EQ(format_bandwidth_mbps(800.0), "800.0 Mb/s");
  EXPECT_EQ(format_power_mw(16.9), "16.90 mW");
  EXPECT_EQ(format_power_mw(1234.0), "1.234 W");
}

TEST(Args, ParsesTypedOptions) {
  ArgParser parser("prog", "test");
  parser.add_int("count", 5, "a count");
  parser.add_double("ratio", 0.5, "a ratio");
  parser.add_string("mode", "fast", "a mode");
  parser.add_flag("verbose", "chatty");
  const char* argv[] = {"prog", "--count", "9", "--ratio=0.25", "--verbose"};
  int exit_code = -1;
  ASSERT_TRUE(parser.parse(5, argv, exit_code));
  EXPECT_EQ(parser.get_int("count"), 9);
  EXPECT_DOUBLE_EQ(parser.get_double("ratio"), 0.25);
  EXPECT_EQ(parser.get_string("mode"), "fast");
  EXPECT_TRUE(parser.get_flag("verbose"));
}

TEST(Args, RejectsUnknownAndBadValues) {
  ArgParser parser("prog", "test");
  parser.add_int("count", 5, "a count");
  int exit_code = 0;
  const char* bad_option[] = {"prog", "--nope", "1"};
  EXPECT_FALSE(parser.parse(3, bad_option, exit_code));
  EXPECT_EQ(exit_code, 2);
  const char* bad_value[] = {"prog", "--count", "many"};
  EXPECT_FALSE(parser.parse(3, bad_value, exit_code));
  EXPECT_EQ(exit_code, 2);
}

TEST(Args, RequireInRejectsValuesOutsideTheRangeWithExitTwo) {
  ArgParser parser("prog", "test");
  parser.add_int("trials", 4, "trials");
  int exit_code = -1;
  for (const char* value : {"1", "100"}) {
    const char* inside[] = {"prog", "--trials", value};
    ASSERT_TRUE(parser.parse(3, inside, exit_code));
    EXPECT_TRUE(parser.require_in("trials", 1, 100, exit_code)) << value;
  }
  // 4294967296 would wrap to 0 in an int32.
  for (const char* value : {"0", "-3", "101", "4294967296"}) {
    const char* outside[] = {"prog", "--trials", value};
    ASSERT_TRUE(parser.parse(3, outside, exit_code));
    exit_code = -1;
    EXPECT_FALSE(parser.require_in("trials", 1, 100, exit_code)) << value;
    EXPECT_EQ(exit_code, 2) << value;
  }
}

TEST(Args, EnvFallbackCoversAllOptionKinds) {
  ::setenv("PAMR_TEST_COUNT", "11", 1);
  ::setenv("PAMR_TEST_RATIO", "0.75", 1);
  ::setenv("PAMR_TEST_MODE", "slow", 1);
  ::setenv("PAMR_TEST_VERBOSE", "on", 1);
  ArgParser parser("prog", "test");
  parser.add_int("count", 5, "a count", "PAMR_TEST_COUNT");
  parser.add_double("ratio", 0.5, "a ratio", "PAMR_TEST_RATIO");
  parser.add_string("mode", "fast", "a mode", "PAMR_TEST_MODE");
  parser.add_flag("verbose", "chatty", "PAMR_TEST_VERBOSE");
  const char* argv[] = {"prog"};
  int exit_code = -1;
  ASSERT_TRUE(parser.parse(1, argv, exit_code));
  EXPECT_EQ(parser.get_int("count"), 11);
  EXPECT_DOUBLE_EQ(parser.get_double("ratio"), 0.75);
  EXPECT_EQ(parser.get_string("mode"), "slow");
  EXPECT_TRUE(parser.get_flag("verbose"));
  ::unsetenv("PAMR_TEST_COUNT");
  ::unsetenv("PAMR_TEST_RATIO");
  ::unsetenv("PAMR_TEST_MODE");
  ::unsetenv("PAMR_TEST_VERBOSE");
}

TEST(Args, CommandLineBeatsEnvironment) {
  ::setenv("PAMR_TEST_RATIO", "0.75", 1);
  ::setenv("PAMR_TEST_VERBOSE", "off", 1);
  ArgParser parser("prog", "test");
  parser.add_double("ratio", 0.5, "a ratio", "PAMR_TEST_RATIO");
  parser.add_flag("verbose", "chatty", "PAMR_TEST_VERBOSE");
  const char* argv[] = {"prog", "--ratio=0.125", "--verbose"};
  int exit_code = -1;
  ASSERT_TRUE(parser.parse(3, argv, exit_code));
  EXPECT_DOUBLE_EQ(parser.get_double("ratio"), 0.125);
  EXPECT_TRUE(parser.get_flag("verbose"));
  ::unsetenv("PAMR_TEST_RATIO");
  ::unsetenv("PAMR_TEST_VERBOSE");
}

TEST(Args, FlagValueSyntaxCanClearAnEnvEnabledFlag) {
  ::setenv("PAMR_TEST_VERBOSE", "1", 1);
  ArgParser parser("prog", "test");
  parser.add_flag("verbose", "chatty", "PAMR_TEST_VERBOSE");
  const char* argv[] = {"prog", "--verbose=off"};
  int exit_code = -1;
  ASSERT_TRUE(parser.parse(2, argv, exit_code));
  EXPECT_FALSE(parser.get_flag("verbose"));
  // An unparsable explicit flag value is an error, not a silent ignore.
  ArgParser strict("prog", "test");
  strict.add_flag("verbose", "chatty");
  const char* bad[] = {"prog", "--verbose=maybe"};
  EXPECT_FALSE(strict.parse(2, bad, exit_code));
  EXPECT_EQ(exit_code, 2);
  ::unsetenv("PAMR_TEST_VERBOSE");
}

TEST(Args, UnparsableEnvValuesKeepDefaults) {
  ::setenv("PAMR_TEST_RATIO", "fast-ish", 1);
  ::setenv("PAMR_TEST_VERBOSE", "maybe", 1);
  ArgParser parser("prog", "test");
  parser.add_double("ratio", 0.5, "a ratio", "PAMR_TEST_RATIO");
  parser.add_flag("verbose", "chatty", "PAMR_TEST_VERBOSE");
  const char* argv[] = {"prog"};
  int exit_code = -1;
  ASSERT_TRUE(parser.parse(1, argv, exit_code));
  EXPECT_DOUBLE_EQ(parser.get_double("ratio"), 0.5);
  EXPECT_FALSE(parser.get_flag("verbose"));
  ::unsetenv("PAMR_TEST_RATIO");
  ::unsetenv("PAMR_TEST_VERBOSE");
}

TEST(Args, HelpTextNamesEnvForEveryKind) {
  ArgParser parser("prog", "test");
  parser.add_double("ratio", 0.5, "a ratio", "PAMR_TEST_RATIO");
  parser.add_string("mode", "fast", "a mode", "PAMR_TEST_MODE");
  parser.add_flag("verbose", "chatty", "PAMR_TEST_VERBOSE");
  const std::string help = parser.help_text();
  EXPECT_NE(help.find("env PAMR_TEST_RATIO"), std::string::npos);
  EXPECT_NE(help.find("env PAMR_TEST_MODE"), std::string::npos);
  EXPECT_NE(help.find("env PAMR_TEST_VERBOSE"), std::string::npos);
}

TEST(Args, HelpStopsParsing) {
  ArgParser parser("prog", "test");
  const char* argv[] = {"prog", "--help"};
  int exit_code = -1;
  EXPECT_FALSE(parser.parse(2, argv, exit_code));
  EXPECT_EQ(exit_code, 0);
}

TEST(Table, TextAndCsvRendering) {
  Table table({"x", "name", "value"});
  table.add_row({std::int64_t{1}, std::string{"alpha"}, 0.5});
  table.add_row({std::int64_t{2}, std::string{"has,comma"}, 1.25});
  const std::string text = table.to_text();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("| x"), std::string::npos);
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("x,name,value\n"), std::string::npos);
}

TEST(Table, RowWiderThanHeaderThrows) {
  Table table({"only"});
  EXPECT_THROW(table.add_row({std::int64_t{1}, std::int64_t{2}}), std::logic_error);
}

}  // namespace
}  // namespace pamr
