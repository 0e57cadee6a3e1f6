// Tests for the §6 experiment harness: metric bookkeeping, point-run
// determinism, and the paper parameters of the registry's figure sweeps
// (full-resolution sweeps live in bench/).
#include <gtest/gtest.h>

#include "pamr/exp/instance_runner.hpp"
#include "pamr/scenario/suite_runner.hpp"

namespace pamr {
namespace exp {
namespace {

TEST(Metrics, SeriesNamesMatchPaperLegend) {
  EXPECT_STREQ(series_name(0), "XY");
  EXPECT_STREQ(series_name(1), "SG");
  EXPECT_STREQ(series_name(2), "IG");
  EXPECT_STREQ(series_name(3), "TB");
  EXPECT_STREQ(series_name(4), "XYI");
  EXPECT_STREQ(series_name(5), "PR");
  EXPECT_STREQ(series_name(kBestSeries), "BEST");
}

TEST(Metrics, BestIsDerivedAsTheValidMinimum) {
  std::array<HeuristicSample, kNumBaseRouters> base{};
  base[0] = {false, 0.0, 0.0, 1.0};         // XY failed
  base[1] = {true, 200.0, 20.0, 2.0};       // SG
  base[2] = {true, 150.0, 15.0, 3.0};       // IG — the winner
  base[3] = {true, 180.0, 18.0, 1.5};       // TB
  base[4] = {false, 0.0, 0.0, 4.0};         // XYI failed
  base[5] = {true, 160.0, 16.0, 5.0};       // PR
  const InstanceSample sample = make_instance_sample(base);
  const HeuristicSample& best = sample.series[kBestSeries];
  EXPECT_TRUE(best.valid);
  EXPECT_DOUBLE_EQ(best.power, 150.0);
  EXPECT_DOUBLE_EQ(best.static_power, 15.0);
  EXPECT_DOUBLE_EQ(best.elapsed_ms, 16.5);  // sum of all six
}

TEST(Metrics, BestFailsWhenEveryoneFails) {
  std::array<HeuristicSample, kNumBaseRouters> base{};
  const InstanceSample sample = make_instance_sample(base);
  EXPECT_FALSE(sample.series[kBestSeries].valid);
  EXPECT_DOUBLE_EQ(sample.series[kBestSeries].inverse_power(), 0.0);
}

TEST(Metrics, AggregateNormalizesAgainstBest) {
  PointAggregate aggregate;
  std::array<HeuristicSample, kNumBaseRouters> base{};
  for (std::size_t h = 0; h < kNumBaseRouters; ++h) base[h] = {true, 100.0, 10.0, 1.0};
  base[5] = {true, 50.0, 5.0, 1.0};  // PR twice as good
  aggregate.add(make_instance_sample(base));
  EXPECT_EQ(aggregate.instances, 1u);
  EXPECT_DOUBLE_EQ(aggregate.normalized_inverse[5].mean(), 1.0);   // PR == BEST
  EXPECT_DOUBLE_EQ(aggregate.normalized_inverse[0].mean(), 0.5);   // XY at half
  EXPECT_DOUBLE_EQ(aggregate.failure_ratio(0), 0.0);
  EXPECT_DOUBLE_EQ(aggregate.static_fraction.mean(), 0.1);
}

TEST(Metrics, MergeMatchesSequentialAggregation) {
  Rng rng(1);
  std::vector<InstanceSample> samples;
  for (int i = 0; i < 50; ++i) {
    std::array<HeuristicSample, kNumBaseRouters> base{};
    for (std::size_t h = 0; h < kNumBaseRouters; ++h) {
      base[h].valid = rng.chance(0.7);
      base[h].power = rng.uniform(50.0, 500.0);
      base[h].static_power = base[h].power * 0.15;
      base[h].elapsed_ms = rng.uniform(0.1, 5.0);
    }
    samples.push_back(make_instance_sample(base));
  }
  PointAggregate all;
  PointAggregate left;
  PointAggregate right;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    all.add(samples[i]);
    (i % 2 == 0 ? left : right).add(samples[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.instances, all.instances);
  for (std::size_t s = 0; s < kNumSeries; ++s) {
    EXPECT_EQ(left.failures[s], all.failures[s]);
    EXPECT_NEAR(left.normalized_inverse[s].mean(), all.normalized_inverse[s].mean(),
                1e-12);
  }
}

/// A single uniform layer on the paper's 8×8 discrete platform.
scenario::ScenarioSpec uniform_spec(std::int32_t num_comms, double lo, double hi) {
  scenario::ScenarioSpec spec;
  scenario::WorkloadLayer& layer = spec.layers.emplace_back();
  layer.kind = scenario::WorkloadLayer::Kind::kUniform;
  layer.num_comms = num_comms;
  layer.weight_lo = lo;
  layer.weight_hi = hi;
  return spec;
}

constexpr std::uint64_t kSeed = scenario::SuiteOptions{}.seed;

/// One spec's aggregate over `instances` instances, run as a one-point
/// campaign on `threads` threads (0: the global pool).
PointAggregate run_point(const scenario::ScenarioSpec& spec, std::int32_t instances,
                         std::uint64_t seed, std::size_t threads = 0) {
  const scenario::Scenario point = scenario::adhoc_scenario(spec);
  scenario::SuiteOptions options;
  options.instances = instances;
  options.threads = threads;
  return scenario::SuiteRunner(options).run_all({{&point, seed}}).front().points[0]
      .aggregate;
}

TEST(Campaign, RunPointIsDeterministicAcrossThreadCounts) {
  const scenario::ScenarioSpec spec = uniform_spec(20, 100.0, 1500.0);
  const PointAggregate first = run_point(spec, 24, 42, 1);
  const PointAggregate second = run_point(spec, 24, 42, 4);
  EXPECT_EQ(first.instances, 24u);
  EXPECT_EQ(first.instances, second.instances);
  for (std::size_t s = 0; s < kNumSeries; ++s) {
    EXPECT_EQ(first.failures[s], second.failures[s]);
    // EXPECT_EQ on doubles is exact: the chunk-ordered merge must make the
    // pool size invisible down to the last bit.
    EXPECT_EQ(first.normalized_inverse[s].mean(), second.normalized_inverse[s].mean());
    EXPECT_EQ(first.normalized_inverse[s].variance(),
              second.normalized_inverse[s].variance());
    EXPECT_EQ(first.inverse_power[s].mean(), second.inverse_power[s].mean());
  }
  EXPECT_EQ(first.static_fraction.mean(), second.static_fraction.mean());
}

TEST(Campaign, NormalizedInverseIsAtMostOneAndBestIsExactlyOneWhenValid) {
  const PointAggregate aggregate = run_point(uniform_spec(30, 100.0, 2500.0), 16, kSeed);
  for (std::size_t s = 0; s < kNumSeries; ++s) {
    EXPECT_LE(aggregate.normalized_inverse[s].max(), 1.0 + 1e-9);
    EXPECT_GE(aggregate.normalized_inverse[s].min(), 0.0);
  }
  // Whenever BEST succeeds its normalized value is 1; failures are 0, so
  // its mean equals its success rate.
  EXPECT_NEAR(aggregate.normalized_inverse[kBestSeries].mean(),
              1.0 - aggregate.failure_ratio(kBestSeries), 1e-12);
}

TEST(Campaign, FailureOrderingMatchesThePaperHierarchy) {
  // §6.1: "From the worst one to the best one, we have XY, SG, TB, IG, XYI
  // and finally PR." Check the coarse ends of that ordering (XY worst, the
  // portfolio BEST at least as good as anything).
  const PointAggregate aggregate = run_point(uniform_spec(50, 100.0, 1500.0), 32, kSeed);
  // BEST dominates everything by construction; XYI starts from XY and only
  // applies strictly improving moves, so it can only fix XY failures, not
  // create new ones.
  for (std::size_t s = 0; s < kNumSeries; ++s) {
    EXPECT_LE(aggregate.failure_ratio(kBestSeries), aggregate.failure_ratio(s) + 1e-12)
        << series_name(s);
  }
  EXPECT_LE(aggregate.failure_ratio(4), aggregate.failure_ratio(0) + 1e-12);
}

/// The single workload layer of one registry point.
const scenario::WorkloadLayer& layer_of(const scenario::ScenarioPoint& point) {
  EXPECT_EQ(point.spec.layers.size(), 1u);
  return point.spec.layers.at(0);
}

TEST(Panels, DefinitionsMatchThePaperParameters) {
  const scenario::ScenarioRegistry& registry = scenario::ScenarioRegistry::builtin();
  const auto& fig7a = registry.at("fig7a_small").points;
  const auto& fig7b = registry.at("fig7b_mixed").points;
  const auto& fig7c = registry.at("fig7c_big").points;
  EXPECT_EQ(layer_of(fig7a.back()).num_comms, 140);
  EXPECT_EQ(layer_of(fig7b.back()).num_comms, 70);
  EXPECT_EQ(layer_of(fig7c.back()).num_comms, 30);
  EXPECT_DOUBLE_EQ(layer_of(fig7a.front()).weight_lo, 100.0);
  EXPECT_DOUBLE_EQ(layer_of(fig7c.front()).weight_lo, 2500.0);

  EXPECT_EQ(layer_of(registry.at("fig8a_few_10comms").points.front()).num_comms, 10);
  EXPECT_EQ(layer_of(registry.at("fig8b_some_20comms").points.front()).num_comms, 20);
  EXPECT_EQ(layer_of(registry.at("fig8c_numerous_40comms").points.front()).num_comms,
            40);

  const std::pair<const char*, std::int32_t> fig9[] = {
      {"fig9a_numerous_small", 100}, {"fig9b_some_mixed", 25}, {"fig9c_few_big", 12}};
  for (const auto& [name, num_comms] : fig9) {
    const auto& points = registry.at(name).points;
    EXPECT_DOUBLE_EQ(points.front().x, 2.0) << name;
    EXPECT_DOUBLE_EQ(points.back().x, 14.0) << name;
    EXPECT_EQ(layer_of(points.front()).num_comms, num_comms) << name;
  }
}

}  // namespace
}  // namespace exp
}  // namespace pamr
