// Unit tests for paths, routings, link loads, the LoadCost oracle and the
// validator (§3.2–§3.4).
#include <gtest/gtest.h>

#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/path.hpp"
#include "pamr/routing/routing.hpp"
#include "pamr/routing/validate.hpp"

namespace pamr {
namespace {

TEST(Path, XyGoesHorizontalThenVertical) {
  const Mesh mesh(4, 4);
  const Path path = xy_path(mesh, {0, 0}, {2, 3});
  EXPECT_EQ(path.length(), 5);
  const auto cores = cores_of_path(mesh, path);
  // Horizontal prefix on row 0, then vertical on column 3.
  EXPECT_EQ(cores[1], (Coord{0, 1}));
  EXPECT_EQ(cores[3], (Coord{0, 3}));
  EXPECT_EQ(cores[4], (Coord{1, 3}));
  EXPECT_TRUE(is_manhattan(mesh, path));
}

TEST(Path, YxGoesVerticalThenHorizontal) {
  const Mesh mesh(4, 4);
  const Path path = yx_path(mesh, {0, 0}, {2, 3});
  const auto cores = cores_of_path(mesh, path);
  EXPECT_EQ(cores[1], (Coord{1, 0}));
  EXPECT_EQ(cores[2], (Coord{2, 0}));
  EXPECT_EQ(cores[3], (Coord{2, 1}));
  EXPECT_TRUE(is_manhattan(mesh, path));
}

TEST(Path, AllQuadrants) {
  const Mesh mesh(5, 5);
  const Coord center{2, 2};
  for (const Coord snk : {Coord{4, 4}, Coord{4, 0}, Coord{0, 0}, Coord{0, 4}}) {
    for (const Path& path : {xy_path(mesh, center, snk), yx_path(mesh, center, snk)}) {
      EXPECT_TRUE(is_manhattan(mesh, path));
      EXPECT_EQ(path.length(), manhattan_distance(center, snk));
    }
  }
}

TEST(Path, ZeroLength) {
  const Mesh mesh(3, 3);
  const Path path = xy_path(mesh, {1, 1}, {1, 1});
  EXPECT_EQ(path.length(), 0);
  EXPECT_TRUE(is_manhattan(mesh, path));
}

TEST(Path, FromCoresValidatesChaining) {
  const Mesh mesh(3, 3);
  const Path path = path_from_cores(mesh, {{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(path.length(), 2);
  EXPECT_TRUE(is_manhattan(mesh, path));
  EXPECT_THROW((void)path_from_cores(mesh, {{0, 0}, {1, 1}}), std::logic_error);
}

TEST(Path, NonManhattanDetected) {
  const Mesh mesh(3, 3);
  // A detour: east then west is connected but not shortest.
  const Path detour = path_from_cores(mesh, {{0, 0}, {0, 1}, {0, 0}, {1, 0}});
  EXPECT_FALSE(is_manhattan(mesh, detour));
  // Wrong endpoints recorded.
  Path lying = xy_path(mesh, {0, 0}, {1, 1});
  lying.snk = {2, 2};
  EXPECT_FALSE(is_manhattan(mesh, lying));
}

TEST(LinkLoads, AccumulateAndMax) {
  const Mesh mesh(3, 3);
  LinkLoads loads(mesh);
  const Path a = xy_path(mesh, {0, 0}, {2, 2});
  const Path b = yx_path(mesh, {0, 0}, {2, 2});
  loads.add_path(a, 2.0);
  loads.add_path(b, 3.0);
  EXPECT_DOUBLE_EQ(loads.max_load(), 3.0);
  loads.add_path(b, -3.0);
  EXPECT_DOUBLE_EQ(loads.max_load(), 2.0);
  loads.clear();
  EXPECT_DOUBLE_EQ(loads.max_load(), 0.0);
}

TEST(LinkLoads, RoutingAggregation) {
  const Mesh mesh(3, 3);
  const CommSet comms{{{0, 0}, {2, 2}, 4.0}};
  Routing routing;
  routing.per_comm.resize(1);
  routing.per_comm[0].flows.push_back(RoutedFlow{xy_path(mesh, {0, 0}, {2, 2}), 1.0});
  routing.per_comm[0].flows.push_back(RoutedFlow{yx_path(mesh, {0, 0}, {2, 2}), 3.0});
  const LinkLoads loads = loads_of_routing(mesh, routing);
  EXPECT_DOUBLE_EQ(loads.load(mesh.link_between({0, 0}, {0, 1})), 1.0);
  EXPECT_DOUBLE_EQ(loads.load(mesh.link_between({0, 0}, {1, 0})), 3.0);
  EXPECT_EQ(routing.max_paths(), 2u);
  EXPECT_DOUBLE_EQ(routing.per_comm[0].total_weight(), 4.0);
}

TEST(LoadCost, MatchesModelWhenFeasible) {
  const PowerModel model = PowerModel::paper_discrete();
  const LoadCost cost(model);
  for (const double load : {0.0, 500.0, 1000.0, 2750.0, 3500.0}) {
    EXPECT_DOUBLE_EQ(cost(load), model.link_power(load).value()) << load;
  }
}

TEST(LoadCost, PenalizesOverloadSteeply) {
  const PowerModel model = PowerModel::paper_discrete();
  const LoadCost cost(model);
  const double at_capacity = cost(3500.0);
  const double overloaded = cost(3600.0);
  EXPECT_GT(overloaded, at_capacity + 1e5);  // penalty dominates
  EXPECT_GT(cost(3700.0), overloaded);       // and keeps growing
}

TEST(LoadCost, DeltaAndTotal) {
  const PowerModel model = PowerModel::theory(3.0, 100.0);
  const LoadCost cost(model);
  EXPECT_DOUBLE_EQ(cost.delta(2.0, 3.0), 27.0 - 8.0);
  const std::vector<double> loads{1.0, 2.0};
  EXPECT_DOUBLE_EQ(cost.total(loads), 9.0);
}

TEST(Validate, AcceptsAWellFormedRouting) {
  const Mesh mesh(3, 3);
  const PowerModel model = PowerModel::theory(3.0, 10.0);
  const CommSet comms{{{0, 0}, {2, 2}, 4.0}, {{2, 0}, {0, 2}, 2.0}};
  std::vector<Path> paths{xy_path(mesh, {0, 0}, {2, 2}), yx_path(mesh, {2, 0}, {0, 2})};
  const Routing routing = make_single_path_routing(comms, std::move(paths));
  EXPECT_TRUE(validate_routing(mesh, comms, routing, model, 1).ok);
}

TEST(Validate, RejectsWrongCardinality) {
  const Mesh mesh(3, 3);
  const PowerModel model = PowerModel::theory(3.0, 10.0);
  const CommSet comms{{{0, 0}, {2, 2}, 4.0}};
  Routing routing;  // empty
  const auto result = validate_routing(mesh, comms, routing, model, 1);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("covers"), std::string::npos);
}

TEST(Validate, RejectsWeightMismatch) {
  const Mesh mesh(3, 3);
  const PowerModel model = PowerModel::theory(3.0, 10.0);
  const CommSet comms{{{0, 0}, {2, 2}, 4.0}};
  Routing routing;
  routing.per_comm.resize(1);
  routing.per_comm[0].flows.push_back(RoutedFlow{xy_path(mesh, {0, 0}, {2, 2}), 3.0});
  EXPECT_FALSE(validate_routing(mesh, comms, routing, model, 1).ok);
}

TEST(Validate, RejectsTooManyFlows) {
  const Mesh mesh(3, 3);
  const PowerModel model = PowerModel::theory(3.0, 10.0);
  const CommSet comms{{{0, 0}, {2, 2}, 4.0}};
  Routing routing;
  routing.per_comm.resize(1);
  routing.per_comm[0].flows.push_back(RoutedFlow{xy_path(mesh, {0, 0}, {2, 2}), 2.0});
  routing.per_comm[0].flows.push_back(RoutedFlow{yx_path(mesh, {0, 0}, {2, 2}), 2.0});
  EXPECT_FALSE(validate_routing(mesh, comms, routing, model, 1).ok);
  EXPECT_TRUE(validate_routing(mesh, comms, routing, model, 2).ok);
  EXPECT_TRUE(validate_routing(mesh, comms, routing, model, 0).ok);  // unbounded
}

TEST(Validate, RejectsWrongEndpointsAndNonManhattan) {
  const Mesh mesh(3, 3);
  const PowerModel model = PowerModel::theory(3.0, 10.0);
  const CommSet comms{{{0, 0}, {2, 2}, 1.0}};
  Routing routing;
  routing.per_comm.resize(1);
  routing.per_comm[0].flows.push_back(RoutedFlow{xy_path(mesh, {0, 0}, {2, 1}), 1.0});
  EXPECT_FALSE(validate_routing(mesh, comms, routing, model, 1).ok);
}

TEST(Validate, RejectsBandwidthViolation) {
  const Mesh mesh(3, 3);
  const PowerModel model = PowerModel::theory(3.0, 4.0);  // BW = 4
  const CommSet comms{{{0, 0}, {2, 2}, 3.0}, {{0, 0}, {2, 2}, 3.0}};
  std::vector<Path> same{xy_path(mesh, {0, 0}, {2, 2}), xy_path(mesh, {0, 0}, {2, 2})};
  const Routing routing = make_single_path_routing(comms, std::move(same));
  const auto result = validate_routing(mesh, comms, routing, model, 1);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("overloaded"), std::string::npos);
  // Structure alone is fine.
  EXPECT_TRUE(validate_structure(mesh, comms, routing, 1).ok);
}

TEST(Validate, StructureMessagesArePinned) {
  // Every rejection of validate_structure, with the exact text the routers'
  // finish() check reports. The tag naming the communication is built only
  // on failure; these strings pin that deferring it changed no message.
  const Mesh mesh(3, 3);
  const CommSet comms{{{0, 1}, {1, 2}, 100.0}, {{0, 0}, {2, 2}, 3.0}};
  const auto base = [&] {
    return make_single_path_routing(
        comms, {xy_path(mesh, {0, 1}, {1, 2}), xy_path(mesh, {0, 0}, {2, 2})});
  };
  const auto message = [&](const Routing& routing, std::size_t max_paths) {
    const ValidationResult result = validate_structure(mesh, comms, routing, max_paths);
    EXPECT_FALSE(result.ok);
    return result.error;
  };
  const std::string tag = "communication #1 C(0,0)->C(2,2) @ 3.0 Mb/s";
  ASSERT_TRUE(validate_structure(mesh, comms, base(), 1).ok);

  Routing short_routing = base();
  short_routing.per_comm.pop_back();
  EXPECT_EQ(message(short_routing, 1), "routing covers 1 communications, expected 2");

  Routing no_flows = base();
  no_flows.per_comm[1].flows.clear();
  EXPECT_EQ(message(no_flows, 1), tag + ": no flows");

  Routing split = base();
  split.per_comm[1].flows[0].weight = 1.5;
  split.per_comm[1].flows.push_back(RoutedFlow{yx_path(mesh, {0, 0}, {2, 2}), 1.5});
  EXPECT_EQ(message(split, 1), tag + ": 2 flows exceed the rule's s=1");
  EXPECT_TRUE(validate_structure(mesh, comms, split, 2).ok);

  Routing zero_weight = base();
  zero_weight.per_comm[1].flows[0].weight = 0.0;
  EXPECT_EQ(message(zero_weight, 1), tag + ": non-positive flow weight");

  Routing wrong_sink = base();
  wrong_sink.per_comm[1].flows[0].path = xy_path(mesh, {0, 0}, {2, 1});
  EXPECT_EQ(message(wrong_sink, 1), tag + ": flow endpoints differ from the communication's");

  Routing detour = base();
  detour.per_comm[1].flows[0].path = xy_path(mesh, {0, 0}, {2, 1});
  detour.per_comm[1].flows[0].path.snk = {2, 2};
  EXPECT_EQ(message(detour, 1), tag + ": flow path is not a Manhattan shortest path");

  Routing short_sum = split;
  short_sum.per_comm[1].flows[1].weight = 1.0;
  EXPECT_EQ(message(short_sum, 2), tag + ": flow weights sum to 2.500000, expected 3.000000");
}

}  // namespace
}  // namespace pamr
