// Behavioural tests for the §5 heuristics: the Figure 2 worked example, the
// §3.5 comparison of routing rules, and targeted scenarios where specific
// heuristics must beat XY or find solutions XY cannot.
#include <gtest/gtest.h>

#include <bit>
#include <thread>

#include "pamr/comm/generator.hpp"
#include "pamr/opt/split_router.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/util/rng.hpp"
#include "paper_instances.hpp"

namespace pamr {
namespace {

// Figure 2 setting: 2×2 mesh, Pleak = 0, P0 = 1, α = 3, BW = 4,
// γ1 = (C11, C22, 1), γ2 = (C11, C22, 3).
class Figure2 : public ::testing::Test {
 protected:
  Mesh mesh{2, 2};
  PowerModel model = PowerModel::theory(3.0, 4.0);
  CommSet comms{{{0, 0}, {1, 1}, 1.0}, {{0, 0}, {1, 1}, 3.0}};
};

TEST_F(Figure2, XyCosts128) {
  const RouteResult result = XYRouter().route(mesh, comms, model);
  ASSERT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.power, 128.0);  // 2 links × 4³
}

TEST_F(Figure2, Best1MpCosts56) {
  // 2(1³ + 3³) = 56: γ1 and γ2 on opposite L-paths. Several heuristics find
  // it; BEST must.
  const RouteResult result = BestRouter().route(mesh, comms, model);
  ASSERT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.power, 56.0);
}

TEST_F(Figure2, TwoPathSplittingCosts32) {
  // Paper: γ2 split into 1+2 over both L-paths, γ1 on the lighter one:
  // all four links at load 2 → 4·2³ = 32. Our greedy splitter reaches the
  // same optimum with the 1.5/1.5 + 0.5/0.5 split.
  const SplitRouteResult result = route_split(mesh, comms, model, 2);
  ASSERT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.power, 32.0);
}

TEST_F(Figure2, RuleHierarchy) {
  // §3.5: XY ⊂ 1-MP ⊂ s-MP — powers must be monotone along the chain.
  const double xy = XYRouter().route(mesh, comms, model).power;
  const double best1mp = BestRouter().route(mesh, comms, model).power;
  const double smp = route_split(mesh, comms, model, 2).power;
  EXPECT_LE(best1mp, xy);
  EXPECT_LE(smp, best1mp);
}

TEST(Heuristics, ManhattanFindsSolutionsXyCannot) {
  // Two heavy communications between the same corner pair: XY stacks both
  // on one path (load 6 > BW 4); any load-splitting heuristic survives.
  const Mesh mesh(2, 2);
  const PowerModel model = PowerModel::theory(3.0, 4.0);
  const CommSet comms{{{0, 0}, {1, 1}, 3.0}, {{0, 0}, {1, 1}, 3.0}};
  EXPECT_FALSE(XYRouter().route(mesh, comms, model).valid);
  for (const RouterKind kind :
       {RouterKind::kSG, RouterKind::kIG, RouterKind::kTB, RouterKind::kPR}) {
    const RouteResult result = make_router(kind)->route(mesh, comms, model);
    EXPECT_TRUE(result.valid) << to_cstring(kind);
    EXPECT_DOUBLE_EQ(result.power, 4 * 27.0) << to_cstring(kind);
  }
}

TEST(Heuristics, XyiUnloadsTheHotLink) {
  // XYI starts from the infeasible XY solution above and must escape it via
  // corner swaps.
  const Mesh mesh(2, 2);
  const PowerModel model = PowerModel::theory(3.0, 4.0);
  const CommSet comms{{{0, 0}, {1, 1}, 3.0}, {{0, 0}, {1, 1}, 3.0}};
  const RouteResult result = XYImproverRouter().route(mesh, comms, model);
  ASSERT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.power, 4 * 27.0);
}

TEST(Heuristics, AllProduceStructurallyValidRoutingsOnEmptyInput) {
  const Mesh mesh(4, 4);
  const PowerModel model = PowerModel::paper_discrete();
  const CommSet comms{};
  for (const RouterKind kind : all_base_routers()) {
    const RouteResult result = make_router(kind)->route(mesh, comms, model);
    EXPECT_TRUE(result.valid) << to_cstring(kind);
    EXPECT_DOUBLE_EQ(result.power, 0.0) << to_cstring(kind);
  }
}

TEST(Heuristics, SingleCommunicationUsesAShortestPath) {
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  const CommSet comms{{{1, 2}, {5, 6}, 900.0}};
  for (const RouterKind kind : all_base_routers()) {
    const RouteResult result = make_router(kind)->route(mesh, comms, model);
    ASSERT_TRUE(result.valid) << to_cstring(kind);
    ASSERT_TRUE(result.routing.has_value());
    const auto& flows = result.routing->per_comm[0].flows;
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].path.length(), 8);
    // One communication, 8 links at 1 Gb/s: identical power for everyone.
    EXPECT_NEAR(result.power, 8 * (16.9 + 5.41), 1e-9) << to_cstring(kind);
  }
}

TEST(Heuristics, SgBalancesEqualCommunications) {
  // Two equal-weight communications across the same rectangle: SG routes
  // the second around the first.
  const Mesh mesh(3, 3);
  const PowerModel model = PowerModel::theory(3.0, 100.0);
  const CommSet comms{{{0, 0}, {2, 2}, 5.0}, {{0, 0}, {2, 2}, 5.0}};
  const RouteResult result = SimpleGreedyRouter().route(mesh, comms, model);
  ASSERT_TRUE(result.valid);
  const LinkLoads loads = loads_of_routing(mesh, *result.routing);
  EXPECT_DOUBLE_EQ(loads.max_load(), 5.0);  // never stacked
}

TEST(Heuristics, TbConsidersAllTwoBendOptions) {
  // Block the straight XY and YX corridors with heavy background traffic;
  // TB must find the interior Z-path.
  const Mesh mesh(3, 3);
  const PowerModel model = PowerModel::theory(3.0, 10.0);
  const CommSet comms{
      {{0, 0}, {0, 2}, 8.0},  // blocks row 0
      {{2, 0}, {2, 2}, 8.0},  // blocks row 2 — wait, row 2 is the sink row
      {{0, 0}, {2, 2}, 4.0},
  };
  const RouteResult result = TwoBendRouter().route(mesh, comms, model);
  ASSERT_TRUE(result.valid);
  const auto& flow = result.routing->per_comm[2].flows[0];
  // The middle communication must not ride the fully loaded row 0 across:
  // its load on the first row-0 link would be 12 > BW.
  const LinkLoads loads = loads_of_routing(mesh, *result.routing);
  EXPECT_LE(loads.max_load(), 10.0);
  EXPECT_TRUE(is_manhattan(mesh, flow.path));
}

TEST(Heuristics, DeterministicAcrossRuns) {
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  Rng rng(12345);
  CommSet comms;
  for (int i = 0; i < 30; ++i) {
    const auto src = static_cast<std::int32_t>(rng.below(64));
    auto snk = src;
    while (snk == src) snk = static_cast<std::int32_t>(rng.below(64));
    comms.push_back(Communication{mesh.core_coord(src), mesh.core_coord(snk),
                                  rng.uniform(100.0, 1500.0)});
  }
  for (const RouterKind kind : all_base_routers()) {
    const auto first = make_router(kind)->route(mesh, comms, model);
    const auto second = make_router(kind)->route(mesh, comms, model);
    EXPECT_EQ(first.valid, second.valid) << to_cstring(kind);
    if (first.valid) {
      EXPECT_DOUBLE_EQ(first.power, second.power) << to_cstring(kind);
      EXPECT_EQ(first.routing->per_comm.size(), second.routing->per_comm.size());
      for (std::size_t i = 0; i < comms.size(); ++i) {
        EXPECT_EQ(first.routing->per_comm[i].flows[0].path,
                  second.routing->per_comm[i].flows[0].path)
            << to_cstring(kind) << " comm " << i;
      }
    }
  }
}

TEST(Heuristics, BestIsMinimumOfBasePolicies) {
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  Rng rng(777);
  for (int round = 0; round < 10; ++round) {
    CommSet comms;
    const int n = 5 + round * 3;
    for (int i = 0; i < n; ++i) {
      const auto src = static_cast<std::int32_t>(rng.below(64));
      auto snk = src;
      while (snk == src) snk = static_cast<std::int32_t>(rng.below(64));
      comms.push_back(Communication{mesh.core_coord(src), mesh.core_coord(snk),
                                    rng.uniform(100.0, 2500.0)});
    }
    const RouteResult best = BestRouter().route(mesh, comms, model);
    bool any_valid = false;
    double min_power = 1e300;
    for (const RouterKind kind : all_base_routers()) {
      const RouteResult result = make_router(kind)->route(mesh, comms, model);
      if (result.valid) {
        any_valid = true;
        min_power = std::min(min_power, result.power);
      }
    }
    EXPECT_EQ(best.valid, any_valid);
    if (any_valid) {
      EXPECT_DOUBLE_EQ(best.power, min_power);
    }
  }
}

TEST(Heuristics, InversePowerIsZeroOnFailure) {
  const Mesh mesh(2, 2);
  const PowerModel model = PowerModel::theory(3.0, 4.0);
  const CommSet comms{{{0, 0}, {1, 1}, 3.0}, {{0, 0}, {1, 1}, 3.0}};
  const RouteResult result = XYRouter().route(mesh, comms, model);
  EXPECT_FALSE(result.valid);
  EXPECT_DOUBLE_EQ(result.inverse_power(), 0.0);
  // The failed routing is still materialized (useful for diagnosis).
  EXPECT_TRUE(result.routing.has_value());
}

/// FNV-1a over every routed link id (with each path's length as a
/// separator), then the validity flag and the bits of the power.
std::uint64_t routing_hash(const RouteResult& result) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const CommRouting& comm : result.routing->per_comm) {
    for (const RoutedFlow& flow : comm.flows) {
      mix(flow.path.links.size());
      for (const LinkId link : flow.path.links) mix(static_cast<std::uint64_t>(link));
    }
  }
  mix(result.valid ? 1 : 0);
  mix(std::bit_cast<std::uint64_t>(result.power));
  return hash;
}

TEST(Heuristics, RoutingsArePinnedOnPaperInstances) {
  // Every base router on three §6 instances (tests/paper_instances.hpp),
  // hashed over its link ids and power bits. TB, SG and XY have no
  // reference router to be differenced against, so these pins are what
  // holds their routings fixed. Values recorded before the routers' inner
  // loops went heap-free. Rows follow paper::instances(); columns
  // follow all_base_routers() (XY, SG, IG, TB, XYI, PR).
  constexpr std::uint64_t kPins[3][6] = {
      {0xd06ce03321fea161, 0xa68d9659207b6718, 0xfd69fbbbe83579e5, 0xa36ba6b291a58e09,
       0x1dd1e2cb775594a7, 0x10b8675c31749389},
      {0xc151689e02c4d212, 0xec7dc609792fe2dc, 0xfb84aedcdb14e468, 0x15559215d9668018,
       0x3e41a8e876da23c9, 0xf14a9bba48877e02},
      {0x9ec100315d2e1fa4, 0xb5ecd350c4429963, 0x7ca893488f459989, 0x25aad6b1fd23ff5b,
       0x3078e744b1d2ae2f, 0x2b4c518496a3bd79},
  };
  const std::vector<paper::Instance> instances = paper::instances();
  ASSERT_EQ(instances.size(), 3u);
  const std::vector<RouterKind> kinds = all_base_routers();
  for (std::size_t row = 0; row < instances.size(); ++row) {
    const paper::Instance& instance = instances[row];
    for (std::size_t col = 0; col < kinds.size(); ++col) {
      const RouteResult result =
          make_router(kinds[col])->route(instance.mesh, instance.comms, instance.model);
      ASSERT_TRUE(result.routing.has_value());
      EXPECT_EQ(routing_hash(result), kPins[row][col])
          << instance.label << " " << to_cstring(kinds[col]);
    }
  }
}

TEST(Heuristics, ReusedStorageLeaksNothingBetweenCalls) {
  // XYI and PR keep their index buffers in per-thread spares
  // (util/reused.hpp). Instance A, then B on a larger mesh under both goals
  // (its verdict call stops part-way, leaving its buffers mid-search), then
  // A again, all on one thread: each A must route exactly as A does on a
  // thread that has routed nothing else.
  const paper::Instance a = paper::instances().front();
  const Mesh b_mesh(10, 10);
  Rng rng(0xABA);
  UniformWorkload b_spec;
  b_spec.num_comms = 240;
  b_spec.weight_lo = 800.0;
  b_spec.weight_hi = 3400.0;
  const CommSet b_comms = generate_uniform(b_mesh, b_spec, rng);
  const PowerModel b_model = PowerModel::paper_discrete();
  for (const RouterKind kind : all_base_routers()) {
    std::uint64_t fresh = 0;
    std::thread([&] {
      fresh = routing_hash(make_router(kind)->route(a.mesh, a.comms, a.model));
    }).join();
    std::uint64_t first = 0;
    std::uint64_t again = 0;
    std::thread([&] {
      const auto router = make_router(kind);
      first = routing_hash(router->route(a.mesh, a.comms, a.model));
      for (const RouteGoal goal : {RouteGoal::kRouting, RouteGoal::kVerdict}) {
        (void)router->route(b_mesh, b_comms, b_model, goal);
      }
      again = routing_hash(router->route(a.mesh, a.comms, a.model));
    }).join();
    EXPECT_EQ(first, fresh) << to_cstring(kind);
    EXPECT_EQ(again, fresh) << to_cstring(kind);
  }
}

TEST(Heuristics, RouterFactoryNamesMatch) {
  for (const RouterKind kind : all_base_routers()) {
    EXPECT_STREQ(make_router(kind)->name(), to_cstring(kind));
  }
  EXPECT_STREQ(make_router(RouterKind::kBest)->name(), "BEST");
}

}  // namespace
}  // namespace pamr
