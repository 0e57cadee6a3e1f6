// Tests for the cycle-level NoC simulator, all through sim::simulate: the
// router mechanics (round-robin fairness, path following, one subflow per
// path), the SimConfig checks, the headline property the substrate exists
// for — a bandwidth-feasible routing sustains its offered traffic, an
// overloaded one saturates and backlogs — and a table of pinned SimStats
// that any rewrite of the cycle loop must reproduce bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "pamr/obs/obs.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/scenario/registry.hpp"
#include "pamr/scenario/work_list.hpp"
#include "pamr/sim/simulator.hpp"
#include "pamr/util/rng.hpp"

namespace pamr {
namespace {

using sim::SimConfig;
using sim::SimStats;

TEST(Simulate, RoundRobinSharesAContendedOutputFairly) {
  // A enters (1,1) from the west, B from the north; both leave east over
  // the same link, which their 2 x 2400 Mb/s oversubscribes.
  const Mesh mesh(3, 3);
  const CommSet comms{{{1, 0}, {1, 2}, 2400.0}, {{0, 1}, {1, 2}, 2400.0}};
  const Routing routing = make_single_path_routing(
      comms, {xy_path(mesh, {1, 0}, {1, 2}), yx_path(mesh, {0, 1}, {1, 2})});
  SimConfig config;
  config.cycles = 12000;
  config.warmup = 2000;
  const SimStats stats = sim::simulate(mesh, comms, routing, config);
  const LinkId shared = mesh.link_from({1, 1}, LinkDir::kEast);
  EXPECT_GT(stats.link_utilization(static_cast<std::size_t>(shared)), 0.97);
  const std::int64_t a = stats.per_subflow[0].delivered_flits;
  const std::int64_t b = stats.per_subflow[1].delivered_flits;
  EXPECT_GT(a, 0);
  EXPECT_LE(std::abs(a - b), config.packet_length) << a << " vs " << b;
}

TEST(Simulate, FlitsFollowTheirPathAndNothingElse) {
  const Mesh mesh(3, 3);
  const CommSet comms{{{0, 0}, {2, 2}, 1000.0}};
  const Path path = xy_path(mesh, {0, 0}, {2, 2});
  const Routing routing = make_single_path_routing(comms, {path});
  SimConfig config;
  config.cycles = 4000;
  config.warmup = 500;
  const SimStats stats = sim::simulate(mesh, comms, routing, config);
  for (LinkId link = 0; link < mesh.num_links(); ++link) {
    const bool on_path =
        std::find(path.links.begin(), path.links.end(), link) != path.links.end();
    EXPECT_EQ(stats.link_busy_cycles[static_cast<std::size_t>(link)] > 0, on_path)
        << mesh.describe_link(link);
  }
}

TEST(Simulate, MultiPathRoutingMakesOneSubflowPerPath) {
  const Mesh mesh(2, 2);
  const CommSet comms{{{0, 0}, {1, 1}, 2000.0}};
  Routing routing;
  routing.per_comm.resize(1);
  routing.per_comm[0].flows.push_back(RoutedFlow{xy_path(mesh, {0, 0}, {1, 1}), 800.0});
  routing.per_comm[0].flows.push_back(RoutedFlow{yx_path(mesh, {0, 0}, {1, 1}), 1200.0});
  SimConfig config;
  config.cycles = 30000;
  config.warmup = 5000;
  const SimStats stats = sim::simulate(mesh, comms, routing, config);
  ASSERT_EQ(stats.per_subflow.size(), 2u);
  EXPECT_NEAR(stats.delivered_mbps(0), 800.0, 40.0);
  EXPECT_NEAR(stats.delivered_mbps(1), 1200.0, 40.0);
}

TEST(Simulate, RejectsMalformedConfigs) {
  const Mesh mesh(2, 2);
  const CommSet comms{{{0, 0}, {1, 1}, 500.0}};
  const Routing routing =
      make_single_path_routing(comms, {xy_path(mesh, {0, 0}, {1, 1})});
  struct Case {
    const char* name;
    void (*mutate)(SimConfig&);
  };
  const Case cases[] = {
      {"buffer_depth=0", [](SimConfig& c) { c.buffer_depth = 0; }},
      {"packet_length=0", [](SimConfig& c) { c.packet_length = 0; }},
      {"flit_mbps=0", [](SimConfig& c) { c.flit_mbps = 0.0; }},
      {"flit_mbps=NaN",
       [](SimConfig& c) { c.flit_mbps = std::numeric_limits<double>::quiet_NaN(); }},
      {"warmup=-1", [](SimConfig& c) { c.warmup = -1; }},
      {"warmup=cycles", [](SimConfig& c) { c.warmup = c.cycles; }},
  };
  for (const Case& c : cases) {
    SimConfig config;
    config.cycles = 100;
    config.warmup = 10;
    c.mutate(config);
    EXPECT_THROW((void)sim::simulate(mesh, comms, routing, config), std::logic_error)
        << c.name;
  }
}

TEST(Simulate, SingleFlowDeliversItsOfferedBandwidth) {
  const Mesh mesh(4, 4);
  const CommSet comms{{{0, 0}, {3, 3}, 1750.0}};  // half capacity
  const Routing routing =
      make_single_path_routing(comms, {xy_path(mesh, {0, 0}, {3, 3})});
  SimConfig config;
  config.cycles = 30000;
  config.warmup = 5000;
  const SimStats stats = sim::simulate(mesh, comms, routing, config);
  EXPECT_GT(stats.delivery_ratio(), 0.99);
  EXPECT_NEAR(stats.delivered_mbps(0), 1750.0, 60.0);
  EXPECT_LT(stats.per_subflow[0].backlog, 64);
  // Link utilization ≈ load/capacity = 0.5 on every path link.
  for (const LinkId link : routing.per_comm[0].flows[0].path.links) {
    EXPECT_NEAR(stats.link_utilization(static_cast<std::size_t>(link)), 0.5, 0.03);
  }
  // Latency at least the hop count.
  EXPECT_GE(stats.per_subflow[0].mean_latency(), 6.0);
}

TEST(Simulate, ValidRoutingSustainsManyFlows) {
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  Rng rng(2718);
  CommSet comms;
  for (int i = 0; i < 12; ++i) {
    const auto src = static_cast<std::int32_t>(rng.below(64));
    auto snk = src;
    while (snk == src) snk = static_cast<std::int32_t>(rng.below(64));
    comms.push_back(Communication{mesh.core_coord(src), mesh.core_coord(snk),
                                  rng.uniform(300.0, 1200.0)});
  }
  const RouteResult routed = BestRouter().route(mesh, comms, model);
  ASSERT_TRUE(routed.valid);
  SimConfig config;
  config.cycles = 30000;
  config.warmup = 5000;
  const SimStats stats = sim::simulate(mesh, comms, *routed.routing, config);
  EXPECT_GT(stats.delivery_ratio(), 0.98);
  for (std::size_t link = 0; link < stats.link_busy_cycles.size(); ++link) {
    EXPECT_LE(stats.link_utilization(link), 1.0 + 1e-9);
  }
}

TEST(Simulate, OverloadedLinkSaturatesAndBacklogs) {
  // Two 2.6 Gb/s flows forced onto the same XY path: 5.2 > 3.5 Gb/s.
  const Mesh mesh(4, 4);
  const CommSet comms{{{0, 0}, {3, 3}, 2600.0}, {{0, 0}, {3, 3}, 2600.0}};
  const Routing routing = make_single_path_routing(
      comms, {xy_path(mesh, {0, 0}, {3, 3}), xy_path(mesh, {0, 0}, {3, 3})});
  SimConfig config;
  config.cycles = 20000;
  config.warmup = 2000;
  const SimStats stats = sim::simulate(mesh, comms, routing, config);
  // The shared path saturates ...
  const LinkId first = routing.per_comm[0].flows[0].path.links[0];
  EXPECT_GT(stats.link_utilization(static_cast<std::size_t>(first)), 0.97);
  // ... delivery falls well short of the offered 5.2 Gb/s ...
  EXPECT_LT(stats.delivery_ratio(), 0.75);
  // ... and the surplus piles up at the sources.
  EXPECT_GT(stats.per_subflow[0].backlog + stats.per_subflow[1].backlog, 2000);
}

TEST(Simulate, SplitRoutingRelievesTheOverload) {
  // The same demand routed on disjoint L-paths is sustainable.
  const Mesh mesh(4, 4);
  const CommSet comms{{{0, 0}, {3, 3}, 2600.0}, {{0, 0}, {3, 3}, 2600.0}};
  const Routing routing = make_single_path_routing(
      comms, {xy_path(mesh, {0, 0}, {3, 3}), yx_path(mesh, {0, 0}, {3, 3})});
  SimConfig config;
  config.cycles = 30000;
  config.warmup = 5000;
  const SimStats stats = sim::simulate(mesh, comms, routing, config);
  EXPECT_GT(stats.delivery_ratio(), 0.98);
  EXPECT_NEAR(stats.delivered_mbps(0) + stats.delivered_mbps(1), 5200.0, 200.0);
}

TEST(Simulate, DeterministicForFixedSeed) {
  const Mesh mesh(4, 4);
  const CommSet comms{{{1, 0}, {2, 3}, 900.0}, {{3, 3}, {0, 0}, 1400.0}};
  const Routing routing = make_single_path_routing(
      comms,
      {xy_path(mesh, {1, 0}, {2, 3}), yx_path(mesh, {3, 3}, {0, 0})});
  SimConfig config;
  config.cycles = 5000;
  config.warmup = 500;
  const SimStats a = sim::simulate(mesh, comms, routing, config);
  const SimStats b = sim::simulate(mesh, comms, routing, config);
  ASSERT_EQ(a.per_subflow.size(), b.per_subflow.size());
  for (std::size_t i = 0; i < a.per_subflow.size(); ++i) {
    EXPECT_EQ(a.per_subflow[i].delivered_flits, b.per_subflow[i].delivered_flits);
    EXPECT_DOUBLE_EQ(a.per_subflow[i].latency_sum, b.per_subflow[i].latency_sum);
  }
  EXPECT_EQ(a.link_busy_cycles, b.link_busy_cycles);
}

TEST(Simulate, FlitConservationNoLossNoDuplication) {
  const Mesh mesh(4, 4);
  const CommSet comms{{{0, 0}, {3, 2}, 1200.0}, {{2, 3}, {0, 1}, 800.0}};
  const Routing routing = make_single_path_routing(
      comms,
      {xy_path(mesh, {0, 0}, {3, 2}), xy_path(mesh, {2, 3}, {0, 1})});
  SimConfig config;
  config.cycles = 20000;
  config.warmup = 0;  // measure everything so conservation is exact
  const SimStats stats = sim::simulate(mesh, comms, routing, config);
  for (std::size_t i = 0; i < stats.per_subflow.size(); ++i) {
    const auto& flow = stats.per_subflow[i];
    // injected = delivered + still-inside (in-network flits are bounded by
    // path length × buffer depth, the rest is source backlog).
    const std::int64_t in_network = flow.injected_flits - flow.delivered_flits;
    EXPECT_GE(in_network, 0);
    EXPECT_LE(in_network, 16 * 4 + 64) << "subflow " << i;
  }
}

TEST(Simulate, RejectsStructurallyInvalidInput) {
  const Mesh mesh(3, 3);
  const CommSet comms{{{0, 0}, {2, 2}, 500.0}};
  Routing routing;  // wrong cardinality
  EXPECT_THROW((void)sim::simulate(mesh, comms, routing, SimConfig{}),
               std::logic_error);
}


// ---------------------------------------------------------------- pins --
// Every SimStats field of a fixed battery, recorded from earlier cycle
// loops: the table-routed simulator for most rows, the loop that scanned
// every node for wide/9x8, and the active-set loop, which stepped every
// flit hop by hop, for the tail rows. A mismatch prints the case's actual
// row in the table's own syntax.

struct PinCase {
  std::string name;
  std::int32_t p = 0;  ///< mesh rows
  std::int32_t q = 0;  ///< mesh columns
  CommSet comms;
  Routing routing;
  SimConfig config;
};

/// Single-path routing on a side x side mesh: two flows sharing row 0 from
/// different inputs, a diagonal crossing and a zero-hop flow.
PinCase single_path_case(std::int32_t side) {
  const Mesh mesh(side, side);
  const std::int32_t last = side - 1;
  PinCase c;
  c.p = c.q = side;
  c.comms = {{{0, 0}, {last, last}, 1500.0},
             {{last, 0}, {0, last}, 1300.0},
             {{0, last}, {last, 0}, 900.0},
             {{0, 0}, {0, 0}, 700.0}};
  c.routing = make_single_path_routing(
      c.comms, {xy_path(mesh, {0, 0}, {last, last}), yx_path(mesh, {last, 0}, {0, last}),
                xy_path(mesh, {0, last}, {last, 0}), xy_path(mesh, {0, 0}, {0, 0})});
  return c;
}

/// Two communications, each split over its XY and YX paths.
PinCase split_case(std::int32_t side) {
  const Mesh mesh(side, side);
  const std::int32_t last = side - 1;
  PinCase c;
  c.p = c.q = side;
  c.comms = {{{0, 0}, {last, last}, 2600.0}, {{last, 0}, {0, last}, 2000.0}};
  c.routing.per_comm.resize(2);
  c.routing.per_comm[0].flows = {{xy_path(mesh, {0, 0}, {last, last}), 1400.0},
                                 {yx_path(mesh, {0, 0}, {last, last}), 1200.0}};
  c.routing.per_comm[1].flows = {{xy_path(mesh, {last, 0}, {0, last}), 1100.0},
                                 {yx_path(mesh, {last, 0}, {0, last}), 900.0}};
  return c;
}

std::vector<PinCase> pin_cases() {
  std::vector<PinCase> cases;
  for (const std::int32_t side : {2, 4, 8}) {
    for (const bool split : {false, true}) {
      for (const std::int32_t depth : {1, 2, 4}) {
        for (const std::int32_t packet : {1, 4}) {
          PinCase c = split ? split_case(side) : single_path_case(side);
          c.name = std::string(split ? "split" : "single") + "/" + std::to_string(side) +
                   "/d" + std::to_string(depth) + "/p" + std::to_string(packet);
          c.config.cycles = 3000;
          c.config.warmup = 500;
          c.config.buffer_depth = depth;
          c.config.packet_length = packet;
          cases.push_back(std::move(c));
        }
      }
    }
  }
  {
    // Two 2600 Mb/s flows forced onto one XY path: 5.2 > 3.5 Gb/s.
    const Mesh mesh(4, 4);
    PinCase c;
    c.name = "overloaded/4";
    c.p = c.q = 4;
    c.comms = {{{0, 0}, {3, 3}, 2600.0}, {{0, 0}, {3, 3}, 2600.0}};
    c.routing = make_single_path_routing(
        c.comms, {xy_path(mesh, {0, 0}, {3, 3}), xy_path(mesh, {0, 0}, {3, 3})});
    c.config.cycles = 3000;
    c.config.warmup = 500;
    cases.push_back(std::move(c));
  }
  for (const std::int32_t depth : {1, 4}) {
    // A and D contend for the south link out of (0,2) and oversubscribe
    // it, so A backs up in the west input of (0,2), where B's flits, which
    // end there, queue behind A's. This exposes the same-cycle ejection of
    // a head uncovered by a mesh output, and at depth 1 (a credit every
    // other cycle) an arbiter that would move without a credit.
    const Mesh mesh(4, 4);
    PinCase c;
    c.name = "merge/4/d" + std::to_string(depth);
    c.p = c.q = 4;
    c.comms = {{{0, 0}, {3, 2}, 2000.0}, {{0, 0}, {0, 2}, 800.0}, {{0, 3}, {2, 2}, 2000.0}};
    c.routing = make_single_path_routing(
        c.comms, {xy_path(mesh, {0, 0}, {3, 2}), xy_path(mesh, {0, 0}, {0, 2}),
                  xy_path(mesh, {0, 3}, {2, 2})});
    c.config.cycles = 3000;
    c.config.warmup = 500;
    c.config.buffer_depth = depth;
    cases.push_back(std::move(c));
  }
  {
    // Four 2-hop L-paths chasing each other round a 2x2 mesh: a cyclic
    // channel dependency that deadlocks at buffer_depth 1. The pin records
    // today's behaviour (nothing delivered), not a correct answer.
    const Mesh mesh(2, 2);
    PinCase c;
    c.name = "ring/2";
    c.p = c.q = 2;
    c.comms = {{{0, 0}, {1, 1}, 1600.0},
               {{0, 1}, {1, 0}, 1600.0},
               {{1, 1}, {0, 0}, 1600.0},
               {{1, 0}, {0, 1}, 1600.0}};
    c.routing = make_single_path_routing(
        c.comms, {path_from_cores(mesh, {{0, 0}, {0, 1}, {1, 1}}),
                  path_from_cores(mesh, {{0, 1}, {1, 1}, {1, 0}}),
                  path_from_cores(mesh, {{1, 1}, {1, 0}, {0, 0}}),
                  path_from_cores(mesh, {{1, 0}, {0, 0}, {0, 1}})});
    c.config.cycles = 3000;
    c.config.warmup = 500;
    c.config.buffer_depth = 1;
    cases.push_back(std::move(c));
  }
  {
    // Three long flows across a 16x16 mesh: most routers never see a
    // flit, and those on the paths fall idle between packets.
    const Mesh mesh(16, 16);
    PinCase c;
    c.name = "sparse/16";
    c.p = c.q = 16;
    c.comms = {{{0, 0}, {15, 15}, 1200.0}, {{15, 0}, {0, 15}, 900.0}, {{0, 15}, {15, 3}, 300.0}};
    c.routing = make_single_path_routing(
        c.comms, {xy_path(mesh, {0, 0}, {15, 15}), yx_path(mesh, {15, 0}, {0, 15}),
                  xy_path(mesh, {0, 15}, {15, 3})});
    c.config.cycles = 3000;
    c.config.warmup = 500;
    cases.push_back(std::move(c));
  }
  for (const std::int32_t depth : {1, 4}) {
    // One packet every ~140 cycles down a 14-hop path: the network drains
    // completely between packets.
    const Mesh mesh(8, 8);
    PinCase c;
    c.name = "trickle/8/d" + std::to_string(depth);
    c.p = c.q = 8;
    c.comms = {{{0, 0}, {7, 7}, 100.0}};
    c.routing = make_single_path_routing(c.comms, {xy_path(mesh, {0, 0}, {7, 7})});
    c.config.cycles = 3000;
    c.config.warmup = 500;
    c.config.buffer_depth = depth;
    c.config.packet_length = 4;
    cases.push_back(std::move(c));
  }
  for (const std::int32_t packet : {1, 4}) {
    // A (east) and B (east, then south) share the west input of (1,1),
    // where C (south, then east) oversubscribes the east output. Popping
    // A's head there uncovers B's flit, bound for the later south output,
    // which may still leave in the same cycle; popping B's head uncovers
    // A's, bound for the earlier east output, which must wait.
    const Mesh mesh(3, 3);
    PinCase c;
    c.name = "uncover/3/p" + std::to_string(packet);
    c.p = c.q = 3;
    c.comms = {{{1, 0}, {1, 2}, 1800.0}, {{1, 0}, {2, 1}, 1200.0}, {{0, 1}, {1, 2}, 1800.0}};
    c.routing = make_single_path_routing(
        c.comms, {xy_path(mesh, {1, 0}, {1, 2}), xy_path(mesh, {1, 0}, {2, 1}),
                  yx_path(mesh, {0, 1}, {1, 2})});
    c.config.cycles = 3000;
    c.config.warmup = 500;
    c.config.buffer_depth = 2;
    c.config.packet_length = packet;
    cases.push_back(std::move(c));
  }
  {
    // overloaded/4 at depth 1: the source node holds no flit of its own
    // and, on the cycles its downstream buffer has no credit, has work
    // only in its source queues.
    const Mesh mesh(4, 4);
    PinCase c;
    c.name = "overloaded/4/d1";
    c.p = c.q = 4;
    c.comms = {{{0, 0}, {3, 3}, 2600.0}, {{0, 0}, {3, 3}, 2600.0}, {{0, 0}, {3, 0}, 900.0}};
    c.routing = make_single_path_routing(
        c.comms, {xy_path(mesh, {0, 0}, {3, 3}), xy_path(mesh, {0, 0}, {3, 3}),
                  xy_path(mesh, {0, 0}, {3, 0})});
    c.config.cycles = 3000;
    c.config.warmup = 500;
    c.config.buffer_depth = 1;
    cases.push_back(std::move(c));
  }
  {
    // A 9x8 mesh has 72 cores, so the routers span two 64-bit words of
    // any per-core bitset. Core 63 is (7,7) and core 64 is (8,0); every
    // flow starts, ends or passes through one of them. The third and
    // fifth flows share the links (6,7)->(7,7)->(8,7)->(8,6) and
    // oversubscribe them (3.6 > 3.5 Gb/s).
    const Mesh mesh(9, 8);
    PinCase c;
    c.name = "wide/9x8";
    c.p = 9;
    c.q = 8;
    c.comms = {{{7, 7}, {8, 0}, 1400.0},
               {{8, 0}, {7, 7}, 1200.0},
               {{6, 7}, {8, 5}, 1500.0},
               {{8, 3}, {6, 0}, 1100.0},
               {{0, 7}, {8, 6}, 2100.0}};
    c.routing = make_single_path_routing(
        c.comms, {xy_path(mesh, {7, 7}, {8, 0}), yx_path(mesh, {8, 0}, {7, 7}),
                  path_from_cores(mesh, {{6, 7}, {7, 7}, {8, 7}, {8, 6}, {8, 5}}),
                  path_from_cores(mesh, {{8, 3}, {8, 2}, {8, 1}, {8, 0}, {7, 0}, {6, 0}}),
                  yx_path(mesh, {0, 7}, {8, 6})});
    c.config.cycles = 3000;
    c.config.warmup = 500;
    c.config.buffer_depth = 2;
    cases.push_back(std::move(c));
  }
  for (const std::int32_t depth : {1, 2, 4}) {
    // A and B share the link (0,1)->(0,2) and oversubscribe it (3.8 > 3.5
    // Gb/s). B ends at (0,2); A goes on over four links no other flow
    // uses, so past the contended link its flits meet no one. C's whole
    // path is private from its source. At depth 1 a flit entering a
    // private tail still holds its first buffer for the next cycle's
    // credit check, which only a source injecting back to back runs into.
    const Mesh mesh(4, 4);
    PinCase c;
    c.name = "tail/4/d" + std::to_string(depth);
    c.p = c.q = 4;
    c.comms = {{{0, 0}, {3, 3}, 2000.0}, {{1, 1}, {0, 2}, 1800.0}, {{3, 0}, {3, 2}, 1500.0}};
    c.routing = make_single_path_routing(
        c.comms, {xy_path(mesh, {0, 0}, {3, 3}), yx_path(mesh, {1, 1}, {0, 2}),
                  xy_path(mesh, {3, 0}, {3, 2})});
    c.config.cycles = 3000;
    c.config.warmup = 500;
    c.config.buffer_depth = depth;
    cases.push_back(std::move(c));
  }
  for (const bool at_end : {false, true}) {
    // A shares its first three links with B, then crosses eleven links no
    // other flow uses. Its flits are mid-way along that private tail when
    // the warmup ends (cycle 20, soon after the first packets) or when the
    // run ends (cycle 1007).
    const Mesh mesh(8, 8);
    PinCase c;
    c.name = at_end ? "tail-end/8" : "tail-warmup/8";
    c.p = c.q = 8;
    c.comms = {{{0, 0}, {7, 7}, 2000.0}, {{0, 0}, {0, 3}, 1200.0}};
    c.routing = make_single_path_routing(
        c.comms, {xy_path(mesh, {0, 0}, {7, 7}), xy_path(mesh, {0, 0}, {0, 3})});
    c.config.cycles = at_end ? 1007 : 3000;
    c.config.warmup = at_end ? 500 : 20;
    cases.push_back(std::move(c));
  }
  return cases;
}

struct PinnedSubflow {
  std::int64_t offered, injected, delivered, packets;
  std::uint64_t latency_sum_bits;  ///< std::bit_cast of the double
  std::int64_t backlog;
};

struct Pin {
  const char* name;
  std::int64_t link_busy_total;
  std::uint64_t link_busy_fnv;  ///< FNV-1a over every link's busy count
  std::vector<PinnedSubflow> subflows;
};

std::uint64_t fnv1a(const std::vector<std::int64_t>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::int64_t value : values) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte, bits >>= 8) {
      hash = (hash ^ (bits & 0xffU)) * 0x100000001b3ULL;
    }
  }
  return hash;
}

Pin pin_of(const char* name, const SimStats& stats) {
  Pin pin{name, 0, fnv1a(stats.link_busy_cycles), {}};
  for (const sim::SubflowStats& flow : stats.per_subflow) {
    pin.subflows.push_back({flow.offered_flits, flow.injected_flits,
                            flow.delivered_flits, flow.delivered_packets,
                            std::bit_cast<std::uint64_t>(flow.latency_sum), flow.backlog});
  }
  for (const std::int64_t busy : stats.link_busy_cycles) pin.link_busy_total += busy;
  return pin;
}

bool operator==(const PinnedSubflow& a, const PinnedSubflow& b) {
  return a.offered == b.offered && a.injected == b.injected &&
         a.delivered == b.delivered && a.packets == b.packets &&
         a.latency_sum_bits == b.latency_sum_bits && a.backlog == b.backlog;
}

std::string row_of(const Pin& pin) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, "{\"%s\", %" PRId64 ", 0x%016" PRIx64 "ULL,\n {",
                pin.name, pin.link_busy_total, pin.link_busy_fnv);
  std::string row = buffer;
  for (std::size_t i = 0; i < pin.subflows.size(); ++i) {
    const PinnedSubflow& f = pin.subflows[i];
    std::snprintf(buffer, sizeof buffer,
                  "%s{%" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64 ", 0x%016" PRIx64
                  "ULL, %" PRId64 "}",
                  i == 0 ? "" : ",\n  ", f.offered, f.injected, f.delivered, f.packets,
                  f.latency_sum_bits, f.backlog);
    row += buffer;
  }
  return row + "}},";
}

// clang-format off
const std::vector<Pin> kPins = {
    {"single/2/d1/p1", 3786, 0x6fb4369d26fa3fc1ULL,
     {{1071, 321, 322, 322, 0x4118115400000000ULL, 900},
      {929, 929, 929, 929, 0x40a2260000000000ULL, 0},
      {643, 643, 643, 643, 0x4094180000000000ULL, 0},
      {500, 500, 500, 500, 0x0000000000000000ULL, 0}}},
    {"single/2/d1/p4", 3784, 0x76130c2ae8b6f5f5ULL,
     {{1072, 321, 321, 80, 0x411800f800000000ULL, 899},
      {928, 929, 929, 232, 0x40b41b0000000000ULL, 0},
      {644, 642, 642, 161, 0x40a91c0000000000ULL, 3},
      {500, 500, 500, 125, 0x0000000000000000ULL, 0}}},
    {"single/2/d2/p1", 5287, 0x328016a0ca634410ULL,
     {{1071, 1072, 1071, 1071, 0x40a4140000000000ULL, 0},
      {929, 929, 929, 929, 0x409d080000000000ULL, 0},
      {643, 643, 643, 643, 0x4094180000000000ULL, 0},
      {500, 500, 500, 500, 0x0000000000000000ULL, 0}}},
    {"single/2/d2/p4", 5283, 0x25432721972731e2ULL,
     {{1072, 1072, 1072, 268, 0x40b4c20000000000ULL, 0},
      {928, 928, 928, 232, 0x40a9600000000000ULL, 0},
      {644, 642, 640, 160, 0x40a1800000000000ULL, 2},
      {500, 500, 500, 125, 0x0000000000000000ULL, 0}}},
    {"single/2/d4/p1", 5287, 0x328016a0ca634410ULL,
     {{1071, 1072, 1071, 1071, 0x40a4140000000000ULL, 0},
      {929, 929, 929, 929, 0x409d080000000000ULL, 0},
      {643, 643, 643, 643, 0x4094180000000000ULL, 0},
      {500, 500, 500, 500, 0x0000000000000000ULL, 0}}},
    {"single/2/d4/p4", 5283, 0x25432721972731e2ULL,
     {{1072, 1072, 1072, 268, 0x40b4c20000000000ULL, 0},
      {928, 928, 928, 232, 0x40a9600000000000ULL, 0},
      {644, 642, 640, 160, 0x40a1800000000000ULL, 2},
      {500, 500, 500, 125, 0x0000000000000000ULL, 0}}},
    {"split/2/d1/p1", 5001, 0x1ef1e0f4d33749b4ULL,
     {{1000, 608, 607, 607, 0x4119877800000000ULL, 471},
      {857, 857, 857, 857, 0x40a0bc0000000000ULL, 0},
      {786, 393, 392, 392, 0x4114f30000000000ULL, 471},
      {643, 643, 642, 642, 0x4099100000000000ULL, 0}}},
    {"split/2/d1/p4", 5000, 0x359dbbdf8be7a627ULL,
     {{1000, 608, 608, 152, 0x411998c000000000ULL, 472},
      {856, 858, 858, 214, 0x40b26e0000000000ULL, 1},
      {784, 392, 393, 98, 0x4115126400000000ULL, 471},
      {644, 642, 642, 161, 0x40abe80000000000ULL, 3}}},
    {"split/2/d2/p1", 6573, 0x924e9e6e8d007f21ULL,
     {{1000, 1000, 1000, 1000, 0x40a14e0000000000ULL, 0},
      {857, 857, 857, 857, 0x409ac80000000000ULL, 0},
      {786, 786, 786, 786, 0x409ad00000000000ULL, 0},
      {643, 643, 642, 642, 0x4094100000000000ULL, 0}}},
    {"split/2/d2/p4", 6571, 0x8f0ce5e3178d0513ULL,
     {{1000, 1000, 1001, 250, 0x40b1960000000000ULL, 2},
      {856, 859, 859, 214, 0x40a77a0000000000ULL, 0},
      {784, 784, 784, 196, 0x40ade00000000000ULL, 0},
      {644, 642, 640, 160, 0x40a1800000000000ULL, 2}}},
    {"split/2/d4/p1", 6573, 0x924e9e6e8d007f21ULL,
     {{1000, 1000, 1000, 1000, 0x40a14e0000000000ULL, 0},
      {857, 857, 857, 857, 0x409ac80000000000ULL, 0},
      {786, 786, 786, 786, 0x409ad00000000000ULL, 0},
      {643, 643, 642, 642, 0x4094100000000000ULL, 0}}},
    {"split/2/d4/p4", 6571, 0x8f0ce5e3178d0513ULL,
     {{1000, 1000, 1001, 250, 0x40b1960000000000ULL, 2},
      {856, 859, 859, 214, 0x40a77a0000000000ULL, 0},
      {784, 784, 784, 196, 0x40ade00000000000ULL, 0},
      {644, 642, 640, 160, 0x40a1800000000000ULL, 2}}},
    {"single/4/d1/p1", 11357, 0x5922f27f4ad3ccf6ULL,
     {{1071, 322, 321, 321, 0x411802f000000000ULL, 899},
      {929, 929, 928, 928, 0x40b78f0000000000ULL, 0},
      {643, 643, 643, 643, 0x40ae240000000000ULL, 0},
      {500, 500, 500, 500, 0x0000000000000000ULL, 0}}},
    {"single/4/d1/p4", 11355, 0x2f89995177ef92b2ULL,
     {{1072, 321, 322, 80, 0x411818c800000000ULL, 898},
      {928, 929, 929, 232, 0x40c14d8000000000ULL, 0},
      {644, 642, 644, 161, 0x40b6a40000000000ULL, 3},
      {500, 500, 500, 125, 0x0000000000000000ULL, 0}}},
    {"single/4/d2/p1", 15857, 0x7370b1cd0000bc58ULL,
     {{1071, 1071, 1072, 1072, 0x40bacd0000000000ULL, 0},
      {929, 929, 928, 928, 0x40b5c00000000000ULL, 0},
      {643, 643, 643, 643, 0x40ae240000000000ULL, 0},
      {500, 500, 500, 500, 0x0000000000000000ULL, 0}}},
    {"single/4/d2/p4", 15838, 0x8d1a4f385fbd8233ULL,
     {{1072, 1071, 1071, 268, 0x40c2be8000000000ULL, 1},
      {928, 928, 930, 232, 0x40bb3f0000000000ULL, 0},
      {644, 642, 644, 161, 0x40b2de0000000000ULL, 2},
      {500, 500, 500, 125, 0x0000000000000000ULL, 0}}},
    {"single/4/d4/p1", 15857, 0x7370b1cd0000bc58ULL,
     {{1071, 1071, 1072, 1072, 0x40bacd0000000000ULL, 0},
      {929, 929, 928, 928, 0x40b5c00000000000ULL, 0},
      {643, 643, 643, 643, 0x40ae240000000000ULL, 0},
      {500, 500, 500, 500, 0x0000000000000000ULL, 0}}},
    {"single/4/d4/p4", 15838, 0x8d1a4f385fbd8233ULL,
     {{1072, 1071, 1071, 268, 0x40c2be8000000000ULL, 1},
      {928, 928, 930, 232, 0x40bb3f0000000000ULL, 0},
      {644, 642, 644, 161, 0x40b2de0000000000ULL, 2},
      {500, 500, 500, 125, 0x0000000000000000ULL, 0}}},
    {"split/4/d1/p1", 14999, 0x31b25114e25d476aULL,
     {{1000, 607, 607, 607, 0x4119995800000000ULL, 471},
      {857, 857, 858, 858, 0x40b5c90000000000ULL, 0},
      {786, 393, 393, 393, 0x4115083400000000ULL, 471},
      {643, 643, 642, 642, 0x40b04b0000000000ULL, 0}}},
    {"split/4/d1/p4", 14998, 0x234f20015f41c65fULL,
     {{1000, 608, 606, 151, 0x4119859800000000ULL, 471},
      {856, 858, 856, 214, 0x40bfc80000000000ULL, 1},
      {784, 393, 393, 98, 0x4115103400000000ULL, 470},
      {644, 642, 644, 161, 0x40b80c0000000000ULL, 3}}},
    {"split/4/d2/p1", 19716, 0xa10120cf46a0e78aULL,
     {{1000, 1000, 1000, 1000, 0x40b8460000000000ULL, 0},
      {857, 857, 857, 857, 0x40b4160000000000ULL, 0},
      {786, 786, 786, 786, 0x40b3d10000000000ULL, 0},
      {643, 643, 642, 642, 0x40ae180000000000ULL, 0}}},
    {"split/4/d2/p4", 19711, 0xb06f2cb8562d168dULL,
     {{1000, 1003, 1000, 250, 0x40c0560000000000ULL, 1},
      {856, 859, 856, 214, 0x40b9140000000000ULL, 0},
      {784, 784, 787, 196, 0x40bb820000000000ULL, 0},
      {644, 642, 643, 161, 0x40b2d80000000000ULL, 2}}},
    {"split/4/d4/p1", 19716, 0xa10120cf46a0e78aULL,
     {{1000, 1000, 1000, 1000, 0x40b8460000000000ULL, 0},
      {857, 857, 857, 857, 0x40b4160000000000ULL, 0},
      {786, 786, 786, 786, 0x40b3d10000000000ULL, 0},
      {643, 643, 642, 642, 0x40ae180000000000ULL, 0}}},
    {"split/4/d4/p4", 19711, 0xb06f2cb8562d168dULL,
     {{1000, 1003, 1000, 250, 0x40c0560000000000ULL, 1},
      {856, 859, 856, 214, 0x40b9140000000000ULL, 0},
      {784, 784, 787, 196, 0x40bb820000000000ULL, 0},
      {644, 642, 643, 161, 0x40b2d80000000000ULL, 2}}},
    {"single/8/d1/p1", 26500, 0x611d9fae0cf8dc8dULL,
     {{1071, 321, 321, 321, 0x4118049400000000ULL, 898},
      {929, 929, 928, 928, 0x40ca490000000000ULL, 0},
      {643, 643, 643, 643, 0x40c1950000000000ULL, 0},
      {500, 500, 500, 500, 0x0000000000000000ULL, 0}}},
    {"single/8/d1/p4", 26501, 0xf67f0649705ab090ULL,
     {{1072, 321, 322, 80, 0x411806e800000000ULL, 896},
      {928, 928, 929, 232, 0x40cfd30000000000ULL, 0},
      {644, 642, 642, 160, 0x40c54f0000000000ULL, 3},
      {500, 500, 500, 125, 0x0000000000000000ULL, 0}}},
    {"single/8/d2/p1", 37000, 0x74405afaf4de8c71ULL,
     {{1071, 1071, 1071, 1071, 0x40cdfb8000000000ULL, 0},
      {929, 929, 928, 928, 0x40c9600000000000ULL, 0},
      {643, 643, 643, 643, 0x40c1950000000000ULL, 0},
      {500, 500, 500, 500, 0x0000000000000000ULL, 0}}},
    {"single/8/d2/p4", 37004, 0xb1068851927e436bULL,
     {{1072, 1072, 1071, 268, 0x40d1c10000000000ULL, 0},
      {928, 928, 928, 232, 0x40cc180000000000ULL, 0},
      {644, 642, 643, 160, 0x40c3768000000000ULL, 2},
      {500, 500, 500, 125, 0x0000000000000000ULL, 0}}},
    {"single/8/d4/p1", 37000, 0x74405afaf4de8c71ULL,
     {{1071, 1071, 1071, 1071, 0x40cdfb8000000000ULL, 0},
      {929, 929, 928, 928, 0x40c9600000000000ULL, 0},
      {643, 643, 643, 643, 0x40c1950000000000ULL, 0},
      {500, 500, 500, 500, 0x0000000000000000ULL, 0}}},
    {"single/8/d4/p4", 37004, 0xb1068851927e436bULL,
     {{1072, 1072, 1071, 268, 0x40d1c10000000000ULL, 0},
      {928, 928, 928, 232, 0x40cc180000000000ULL, 0},
      {644, 642, 643, 160, 0x40c3768000000000ULL, 2},
      {500, 500, 500, 125, 0x0000000000000000ULL, 0}}},
    {"split/8/d1/p1", 35000, 0x91d2a69dc3bf0f57ULL,
     {{1000, 607, 607, 607, 0x4119b1c800000000ULL, 470},
      {857, 857, 857, 857, 0x40c8458000000000ULL, 0},
      {786, 393, 393, 393, 0x4115174800000000ULL, 470},
      {643, 643, 643, 643, 0x40c2370000000000ULL, 0}}},
    {"split/8/d1/p4", 35004, 0x9bdcdf20e9c51935ULL,
     {{1000, 606, 607, 152, 0x4119c44000000000ULL, 472},
      {856, 858, 857, 214, 0x40cd498000000000ULL, 1},
      {784, 393, 393, 98, 0x41150bd400000000ULL, 469},
      {644, 641, 642, 160, 0x40c6030000000000ULL, 3}}},
    {"split/8/d2/p1", 45999, 0xba92f3b6c3f1c3a5ULL,
     {{1000, 1000, 1000, 1000, 0x40cbe70000000000ULL, 0},
      {857, 857, 857, 857, 0x40c76f0000000000ULL, 0},
      {786, 786, 785, 785, 0x40c6050000000000ULL, 0},
      {643, 643, 643, 643, 0x40c1950000000000ULL, 0}}},
    {"split/8/d2/p4", 46008, 0x797e97e33d34eb6eULL,
     {{1000, 1000, 1000, 250, 0x40d0410000000000ULL, 1},
      {856, 859, 858, 214, 0x40c9f88000000000ULL, 0},
      {784, 785, 786, 197, 0x40c9e68000000000ULL, 0},
      {644, 642, 644, 161, 0x40c37f0000000000ULL, 2}}},
    {"split/8/d4/p1", 45999, 0xba92f3b6c3f1c3a5ULL,
     {{1000, 1000, 1000, 1000, 0x40cbe70000000000ULL, 0},
      {857, 857, 857, 857, 0x40c76f0000000000ULL, 0},
      {786, 786, 785, 785, 0x40c6050000000000ULL, 0},
      {643, 643, 643, 643, 0x40c1950000000000ULL, 0}}},
    {"split/8/d4/p4", 46008, 0x797e97e33d34eb6eULL,
     {{1000, 1000, 1000, 250, 0x40d0410000000000ULL, 1},
      {856, 859, 858, 214, 0x40c9f88000000000ULL, 0},
      {784, 785, 786, 197, 0x40c9e68000000000ULL, 0},
      {644, 642, 644, 161, 0x40c37f0000000000ULL, 2}}},
    {"overloaded/4", 15000, 0xb7e53b4a7eda960dULL,
     {{1856, 1252, 1250, 313, 0x4125f9c200000000ULL, 728},
      {1856, 1248, 1250, 312, 0x4126134a00000000ULL, 732}}},
    {"merge/4/d1", 5569, 0x70b27a697a3ba11eULL,
     {{1428, 453, 454, 114, 0x4120885000000000ULL, 1167},
      {572, 456, 456, 114, 0x4104514000000000ULL, 140},
      {1428, 796, 796, 199, 0x4122e7fc00000000ULL, 758}}},
    {"merge/4/d4", 11003, 0x5f70677ba9d296bdULL,
     {{1428, 1179, 1179, 295, 0x41167d7000000000ULL, 297},
      {572, 572, 573, 144, 0x40b7790000000000ULL, 0},
      {1428, 1322, 1322, 330, 0x4105eb7000000000ULL, 125}}},
    {"ring/2", 0, 0xb9b23f3a46fd0825ULL,
     {{1144, 0, 0, 0, 0x0000000000000000ULL, 1371},
      {1144, 0, 0, 0, 0x0000000000000000ULL, 1371},
      {1144, 0, 0, 0, 0x0000000000000000ULL, 1371},
      {1144, 0, 0, 0, 0x0000000000000000ULL, 1371}}},
    {"sparse/16", 50808, 0x3c2a05ada59d40cfULL,
     {{856, 857, 856, 214, 0x40db3c0000000000ULL, 1},
      {644, 642, 643, 160, 0x40d3c74000000000ULL, 2},
      {216, 216, 212, 53, 0x40b79a0000000000ULL, 0}}},
    {"trickle/8/d1", 1008, 0x07d5dfa6310cd425ULL,
     {{72, 72, 72, 18, 0x4093200000000000ULL, 0}}},
    {"trickle/8/d4", 1008, 0x07d5dfa6310cd425ULL,
     {{72, 72, 72, 18, 0x4091700000000000ULL, 0}}},
    {"uncover/3/p1", 6715, 0xebcb663058e7af44ULL,
     {{1285, 1250, 1250, 1250, 0x40ef0f4000000000ULL, 43},
      {857, 857, 857, 857, 0x409b580000000000ULL, 0},
      {1286, 1250, 1250, 1250, 0x40ef916000000000ULL, 42}}},
    {"uncover/3/p4", 6358, 0xc798ebabc73ec61bULL,
     {{1284, 1034, 1035, 259, 0x4115983800000000ULL, 299},
      {856, 859, 858, 214, 0x40aeb00000000000ULL, 0},
      {1284, 1285, 1287, 322, 0x40b8700000000000ULL, 0}}},
    {"overloaded/4/d1", 9426, 0x12534f5a9956d8edULL,
     {{1856, 626, 624, 156, 0x41261ca000000000ULL, 1478},
      {1856, 624, 626, 156, 0x41263b9000000000ULL, 1480},
      {644, 642, 642, 161, 0x40ae200000000000ULL, 3}}},
    {"wide/9x8", 36283, 0xd81a6b3b4eb0cab1ULL,
     {{1000, 1000, 1000, 250, 0x40c28e0000000000ULL, 1},
      {856, 860, 856, 214, 0x40c1fe0000000000ULL, 0},
      {1072, 1000, 1000, 250, 0x40fdf2c000000000ULL, 86},
      {784, 784, 786, 197, 0x40b3f70000000000ULL, 0},
      {1500, 1500, 1500, 375, 0x40cec30000000000ULL, 2}}},
    {"tail/4/d1", 7142, 0xeb0e18c1081d8657ULL,
     {{1428, 625, 625, 157, 0x4122d53000000000ULL, 962},
      {1284, 625, 625, 157, 0x41212d2400000000ULL, 791},
      {1072, 1071, 1071, 268, 0x40b4ea0000000000ULL, 1}}},
    {"tail/4/d2", 12144, 0xad1c7d41d51859aaULL,
     {{1428, 1250, 1250, 312, 0x41113e1000000000ULL, 213},
      {1284, 1250, 1250, 313, 0x40f0652000000000ULL, 42},
      {1072, 1072, 1072, 268, 0x40ad500000000000ULL, 0}}},
    {"tail/4/d4", 12144, 0xad1c7d41d51859aaULL,
     {{1428, 1250, 1250, 312, 0x41113e1000000000ULL, 211},
      {1284, 1250, 1250, 313, 0x40f0652000000000ULL, 40},
      {1072, 1072, 1072, 268, 0x40ad500000000000ULL, 0}}},
    {"tail-warmup/8", 26900, 0x16ca73283cf82abdULL,
     {{1700, 1701, 1703, 426, 0x40dc6f8000000000ULL, 2},
      {1024, 1024, 1022, 255, 0x40b1f50000000000ULL, 0}}},
    {"tail-end/8", 4579, 0x50deb3a36897a636ULL,
     {{292, 288, 288, 72, 0x40b33c0000000000ULL, 4},
      {172, 175, 176, 44, 0x4088c00000000000ULL, 0}}},
};
// clang-format on

// Paranoid builds (PAMR_CHECK_LEVEL >= 2) also re-derive the loop's cached
// state (active-router set, non-empty masks, head ports, full flags) after
// every cycle and throw on the "sim-state" invariant if any went stale, so
// this runs the whole battery through that check too.
TEST(Simulate, StatsMatchParentPins) {
  const std::vector<PinCase> cases = pin_cases();
  ASSERT_EQ(kPins.size(), cases.size()) << "rows to pin:\n" << [&] {
    std::string rows;
    for (const PinCase& c : cases) {
      const Mesh mesh(c.p, c.q);
      rows += row_of(pin_of(c.name.c_str(),
                            sim::simulate(mesh, c.comms, c.routing, c.config))) + "\n";
    }
    return rows;
  }();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PinCase& c = cases[i];
    ASSERT_EQ(c.name, kPins[i].name);
    const Mesh mesh(c.p, c.q);
    const Pin actual =
        pin_of(kPins[i].name, sim::simulate(mesh, c.comms, c.routing, c.config));
    const bool same = actual.subflows == kPins[i].subflows &&
                      actual.link_busy_total == kPins[i].link_busy_total &&
                      actual.link_busy_fnv == kPins[i].link_busy_fnv;
    EXPECT_TRUE(same) << "actual " << row_of(actual);
  }
}

// ------------------------------------------------------- counter pins --
// sim.router_cycles, sim.flit_hops and sim.flit_hops_retired of three
// probes. flit_hops was recorded from the simulator that scanned every node
// each cycle; a retired flit's hops still count. router_cycles and
// flit_hops_retired were recorded when flits began to retire on private
// tails, since a retired flit is buffered at no router after its grant. A
// loop that evaluates a router without work, or skips one with work, moves
// router_cycles even where every SimStats field still matches.

struct CounterPin {
  const char* name;
  std::uint64_t probes, router_cycles, flit_hops, flit_hops_retired;
};

CounterPin count_probe(const char* name, const std::function<void()>& probe) {
  obs::set_enabled(true);
  obs::reset();
  probe();
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();
  return {name, snap.counter(obs::Metric::kSimProbes),
          snap.counter(obs::Metric::kSimRouterCycles),
          snap.counter(obs::Metric::kSimFlitHops),
          snap.counter(obs::Metric::kSimFlitHopsRetired)};
}

TEST(Simulate, CountersMatchParentPins) {
  std::vector<CounterPin> actual;
  const std::vector<PinCase> cases = pin_cases();
  for (const char* name : {"sparse/16", "trickle/8/d1"}) {
    const auto it = std::find_if(cases.begin(), cases.end(),
                                 [&](const PinCase& c) { return c.name == name; });
    ASSERT_NE(it, cases.end()) << name;
    const Mesh mesh(it->p, it->q);
    actual.push_back(count_probe(
        name, [&] { (void)sim::simulate(mesh, it->comms, it->routing, it->config); }));
  }
  {
    // The first instance of injection_sweep's 1.25x point, probed exactly
    // as a campaign unit probes it (BEST routing, seeded SimConfig).
    const scenario::Scenario& sweep =
        scenario::ScenarioRegistry::builtin().at("injection_sweep");
    const std::size_t point = 4;
    ASSERT_EQ(sweep.points[point].x, 1.25);
    const scenario::ScenarioSpec& spec = sweep.points[point].spec;
    const Mesh mesh = spec.make_mesh();
    const PowerModel model = spec.make_model();
    actual.push_back(count_probe("injection_sweep/1.25", [&] {
      (void)scenario::run_unit_instances(mesh, model, spec, 0, 1, 1, sweep.default_seed,
                                         point);
    }));
  }
  const std::vector<CounterPin> expected = {
      {"sparse/16", 0, 40215, 60527, 22180},
      {"trickle/8/d1", 0, 147, 1176, 1176},
      {"injection_sweep/1.25", 1, 86127, 96501, 19154},
  };
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const CounterPin& a = actual[i];
    const CounterPin& e = expected[i];
    EXPECT_EQ(std::string(a.name), std::string(e.name));
    EXPECT_TRUE(a.probes == e.probes && a.router_cycles == e.router_cycles &&
                a.flit_hops == e.flit_hops && a.flit_hops_retired == e.flit_hops_retired)
        << "actual {\"" << a.name << "\", " << a.probes << ", " << a.router_cycles << ", "
        << a.flit_hops << ", " << a.flit_hops_retired << "},";
  }
}

}  // namespace
}  // namespace pamr
