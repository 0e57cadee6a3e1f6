// Tests for the topology subsystem (src/pamr/topo): the torus analytic
// cross-checks (exact integer equality of the
// BFS distance stats against the closed forms), the pinned torus tie-break
// rules, per-topology deadlock-freedom (the expanded (link, VC) dependency
// graph must be acyclic for routed instances and for the adversarial
// all-East ring), the pinned routings of every policy analogue, the pinned
// rejection texts, the `topo=` spec axis round-trips and rejections, and the
// differential-determinism battery (suite_diff.hpp) for torus and diag
// campaigns: 1-thread == N-thread == 2-worker pamr_dist ==
// interrupted+resumed, bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "pamr/routing/deadlock.hpp"
#include "pamr/routing/path.hpp"
#include "pamr/routing/router.hpp"
#include "pamr/scenario/registry.hpp"
#include "pamr/topo/topo_router.hpp"
#include "pamr/topo/topologies.hpp"
#include "pamr/topo/validate.hpp"
#include "suite_diff.hpp"

namespace pamr {
namespace topo {
namespace {

using scenario::Scenario;
using scenario::ScenarioRegistry;
using scenario::ScenarioSpec;
using suitetest::parse_spec;

CommSet small_workload(std::int32_t p, std::int32_t q, std::int32_t n) {
  // Deterministic spread of endpoints and weights, no two coincident.
  CommSet comms;
  const std::int32_t cores = p * q;
  for (std::int32_t i = 0; i < n; ++i) {
    const std::int32_t a = (7 * i + 3) % cores;
    std::int32_t b = (11 * i + cores / 2 + 1) % cores;
    if (b == a) b = (b + 1) % cores;
    comms.push_back(Communication{{a / q, a % q},
                                  {b / q, b % q},
                                  300.0 + 100.0 * (i % 7)});
  }
  return comms;
}

// -- Construction and enumeration -------------------------------------------

TEST(TopoKind, NamesRoundTrip) {
  for (int k = 0; k < kNumTopoKinds; ++k) {
    const auto kind = static_cast<TopoKind>(k);
    TopoKind parsed = TopoKind::kRect;
    EXPECT_TRUE(parse_topo_kind(to_cstring(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  TopoKind parsed = TopoKind::kDiag;
  EXPECT_FALSE(parse_topo_kind("hexagon", parsed));
  EXPECT_EQ(parsed, TopoKind::kDiag);  // untouched on failure
}

TEST(TorusTopology, EveryDirectionEverywhere) {
  const TorusTopology topology(3, 4);
  // 4 outgoing links per core on a torus with both dimensions >= 3.
  EXPECT_EQ(topology.num_links(), 3 * 4 * 4);
  for (std::int32_t c = 0; c < topology.num_cores(); ++c) {
    for (std::int32_t d = 0; d < kNumLinkDirs; ++d) {
      EXPECT_NE(topology.link_from(topology.core_coord(c), d), kInvalidLink);
    }
  }
}

TEST(TorusTopology, DegenerateAxes) {
  // A dimension-1 axis has no links (no self-links); a dimension-2 axis
  // keeps both directions as distinct parallel links.
  const TorusTopology ring(1, 8);
  EXPECT_EQ(ring.num_links(), 8 * 2);
  EXPECT_EQ(ring.link_from({0, 3}, static_cast<std::int32_t>(LinkDir::kSouth)),
            kInvalidLink);
  const TorusTopology narrow(2, 2);
  EXPECT_EQ(narrow.num_links(), 2 * 2 * 4);
  const LinkId east = narrow.link_from({0, 0}, static_cast<std::int32_t>(LinkDir::kEast));
  const LinkId west = narrow.link_from({0, 0}, static_cast<std::int32_t>(LinkDir::kWest));
  ASSERT_NE(east, kInvalidLink);
  ASSERT_NE(west, kInvalidLink);
  EXPECT_NE(east, west);  // parallel links, same endpoints
  EXPECT_EQ(narrow.link(east).to, narrow.link(west).to);
  // link_between resolves to the first in direction order (East).
  EXPECT_EQ(narrow.link_between({0, 0}, {0, 1}), east);
}

TEST(DiagTopology, DirectionTableAndDistance) {
  const DiagTopology topology(4, 4);
  // Interior cores have all 8 directions; the NW corner only E, S, SE.
  EXPECT_NE(topology.link_from({1, 1}, DiagTopology::kDirNE), kInvalidLink);
  EXPECT_EQ(topology.link_from({0, 0}, static_cast<std::int32_t>(LinkDir::kWest)),
            kInvalidLink);
  EXPECT_EQ(topology.link_from({0, 0}, DiagTopology::kDirNE), kInvalidLink);
  EXPECT_NE(topology.link_from({0, 0}, DiagTopology::kDirSE), kInvalidLink);
  // Chebyshev distances.
  EXPECT_EQ(topology.distance({0, 0}, {3, 3}), 3);
  EXPECT_EQ(topology.distance({0, 0}, {1, 3}), 3);
  EXPECT_EQ(topology.distance({2, 1}, {2, 1}), 0);
  // Canonical path: diagonal steps first, then the straight remainder.
  const Path path = topology.canonical_path({0, 0}, {1, 3});
  ASSERT_EQ(path.length(), 3);
  EXPECT_EQ(topology.link(path.links[0]).dir, DiagTopology::kDirSE);
  EXPECT_EQ(topology.link(path.links[1]).dir,
            static_cast<std::int32_t>(LinkDir::kEast));
  EXPECT_EQ(topology.link(path.links[2]).dir,
            static_cast<std::int32_t>(LinkDir::kEast));
}

// -- Torus analytics: BFS must equal the closed forms exactly ----------------

void expect_torus_analytics_exact(std::int32_t p, std::int32_t q) {
  const TorusTopology topology(p, q);
  const DistanceStats stats = distance_stats(topology);
  EXPECT_EQ(stats.diameter, torus_diameter(p, q)) << p << "x" << q;
  EXPECT_EQ(stats.total_hops, torus_total_pair_hops(p, q)) << p << "x" << q;
}

TEST(TorusTopology, AnalyticDistanceStats) {
  expect_torus_analytics_exact(8, 8);
  expect_torus_analytics_exact(16, 16);
  expect_torus_analytics_exact(5, 7);  // odd rings exercise the (n²-1)/4 branch
  expect_torus_analytics_exact(2, 6);
  expect_torus_analytics_exact(1, 8);
  // Pin the closed-form values themselves so a matching bug in both the BFS
  // and the formula cannot slip through.
  EXPECT_EQ(torus_diameter(8, 8), 8);
  EXPECT_EQ(torus_total_pair_hops(8, 8), 16384);
  EXPECT_EQ(torus_diameter(16, 16), 16);
  EXPECT_EQ(torus_total_pair_hops(16, 16), 524288);
  // Average hops over ordered distinct pairs: 16384 / (64·63).
  const DistanceStats stats = distance_stats(TorusTopology(8, 8));
  EXPECT_DOUBLE_EQ(stats.average_hops(64), 16384.0 / (64.0 * 63.0));
}

// -- Pinned torus tie-breaks -------------------------------------------------

TEST(TorusTopology, CanonicalTieBreaksArePinned) {
  const TorusTopology topology(8, 8);
  // Exactly half an even ring: both directions minimal, East canonical.
  {
    const std::vector<TopoStep> steps = topology.next_steps({0, 0}, {0, 4});
    ASSERT_EQ(steps.size(), 2u);
    EXPECT_EQ(topology.link(steps[0].link).dir,
              static_cast<std::int32_t>(LinkDir::kEast));
    EXPECT_EQ(topology.link(steps[1].link).dir,
              static_cast<std::int32_t>(LinkDir::kWest));
    const Path path = topology.canonical_path({0, 0}, {0, 4});
    ASSERT_EQ(path.length(), 4);
    for (const LinkId id : path.links) {
      EXPECT_EQ(topology.link(id).dir, static_cast<std::int32_t>(LinkDir::kEast));
    }
  }
  // Same on the vertical axis: South canonical.
  {
    const std::vector<TopoStep> steps = topology.next_steps({0, 0}, {4, 0});
    ASSERT_EQ(steps.size(), 2u);
    EXPECT_EQ(topology.link(steps[0].link).dir,
              static_cast<std::int32_t>(LinkDir::kSouth));
  }
  // Strictly shorter the other way round: wraps West through the dateline.
  {
    const Path path = topology.canonical_path({0, 0}, {0, 5});
    ASSERT_EQ(path.length(), 3);
    EXPECT_EQ(topology.link(path.links[0]).dir,
              static_cast<std::int32_t>(LinkDir::kWest));
    EXPECT_EQ(path.links.size(), 3u);
    EXPECT_EQ(topology.link(path.links[0]).to, (Coord{0, 7}));
  }
  // A half-ring tie away from the origin: East canonical, crossing v=7→0.
  {
    const Path path = topology.canonical_path({0, 6}, {0, 2});
    ASSERT_EQ(path.length(), 4);
    for (const LinkId id : path.links) {
      EXPECT_EQ(topology.link(id).dir, static_cast<std::int32_t>(LinkDir::kEast));
    }
    EXPECT_EQ(topology.link(path.links[1]).from, (Coord{0, 7}));
    EXPECT_EQ(topology.link(path.links[1]).to, (Coord{0, 0}));
  }
  // Horizontal before vertical (the XY discipline).
  {
    const std::vector<TopoStep> steps = topology.next_steps({1, 1}, {3, 3});
    ASSERT_EQ(steps.size(), 2u);
    EXPECT_EQ(topology.link(steps[0].link).dir,
              static_cast<std::int32_t>(LinkDir::kEast));
    EXPECT_EQ(topology.link(steps[1].link).dir,
              static_cast<std::int32_t>(LinkDir::kSouth));
  }
}

TEST(Topology, NextStepsReduceDistanceByOne) {
  for (const TopoKind kind : {TopoKind::kTorus, TopoKind::kDiag}) {
    const auto topology = make_topology(kind, 5, 4);
    for (std::int32_t a = 0; a < topology->num_cores(); ++a) {
      for (std::int32_t b = 0; b < topology->num_cores(); ++b) {
        const Coord at = topology->core_coord(a);
        const Coord snk = topology->core_coord(b);
        const std::vector<TopoStep> steps = topology->next_steps(at, snk);
        EXPECT_EQ(steps.empty(), at == snk);
        for (const TopoStep& step : steps) {
          EXPECT_EQ(topology->link(step.link).from, at);
          EXPECT_EQ(topology->link(step.link).to, step.to);
          EXPECT_EQ(topology->distance(step.to, snk),
                    topology->distance(at, snk) - 1)
              << to_cstring(kind);
        }
      }
    }
  }
}

// -- Deadlock freedom --------------------------------------------------------

TEST(TopoValidate, RoutedInstancesAreVcDeadlockFree) {
  const PowerModel model = PowerModel::paper_discrete();
  for (const TopoKind kind : {TopoKind::kTorus, TopoKind::kDiag}) {
    const auto topology = make_topology(kind, 6, 6);
    const CommSet comms = small_workload(6, 6, 20);
    for (const RouterKind router : all_base_routers()) {
      const RouteResult result = route_on(*topology, router, comms, model);
      ASSERT_TRUE(result.routing.has_value());
      const ValidationResult structure =
          validate_structure(*topology, comms, *result.routing);
      EXPECT_TRUE(structure.ok) << to_cstring(kind) << "/" << to_cstring(router)
                                << ": " << structure.error;
      EXPECT_TRUE(verify_vc_acyclic(*topology, *result.routing))
          << to_cstring(kind) << "/" << to_cstring(router);
    }
  }
}

TEST(TopoValidate, StructureMessagesArePinned) {
  // Every rejection of the topology validate_structure, with its exact text;
  // as in the mesh validator, the communication tag is built only on failure.
  const TorusTopology topology(4, 4);
  const CommSet comms{{{0, 1}, {1, 2}, 100.0}, {{0, 0}, {1, 1}, 3.0}};
  const auto base = [&] {
    return make_single_path_routing(comms, {topology.canonical_path({0, 1}, {1, 2}),
                                            topology.canonical_path({0, 0}, {1, 1})});
  };
  const auto message = [&](const Routing& routing, std::size_t max_paths) {
    const ValidationResult result =
        validate_structure(topology, comms, routing, max_paths);
    EXPECT_FALSE(result.ok);
    return result.error;
  };
  const std::string tag = "communication #1 C(0,0)->C(1,1) @ 3.0 Mb/s";
  ASSERT_TRUE(validate_structure(topology, comms, base(), 1).ok);

  Routing short_routing = base();
  short_routing.per_comm.pop_back();
  EXPECT_EQ(message(short_routing, 1), "routing covers 1 communications, expected 2");

  Routing no_flows = base();
  no_flows.per_comm[1].flows.clear();
  EXPECT_EQ(message(no_flows, 1), tag + ": no flows");

  Routing split = base();
  split.per_comm[1].flows[0].weight = 1.5;
  split.per_comm[1].flows.push_back(split.per_comm[1].flows[0]);
  EXPECT_EQ(message(split, 1), tag + ": 2 flows exceed the rule's s=1");
  EXPECT_TRUE(validate_structure(topology, comms, split, 2).ok);

  Routing zero_weight = base();
  zero_weight.per_comm[1].flows[0].weight = 0.0;
  EXPECT_EQ(message(zero_weight, 1), tag + ": non-positive flow weight");

  Routing wrong_sink = base();
  wrong_sink.per_comm[1].flows[0].path = topology.canonical_path({0, 0}, {1, 2});
  EXPECT_EQ(message(wrong_sink, 1), tag + ": flow endpoints differ from the communication's");

  Routing detour = base();
  detour.per_comm[1].flows[0].path = topology.canonical_path({0, 0}, {1, 2});
  detour.per_comm[1].flows[0].path.snk = {1, 1};
  EXPECT_EQ(message(detour, 1), tag + ": flow path is not a shortest torus path");

  Routing short_sum = split;
  short_sum.per_comm[1].flows[1].weight = 1.0;
  EXPECT_EQ(message(short_sum, 2), tag + ": flow weights sum to 2.500000, expected 3.000000");
}

TEST(TopoValidate, TorusAllEastRingNeedsTheDatelineClasses) {
  // The adversarial case for wraparound: eight flows (0,k)→(0,(k+2)%8) all
  // travelling East close a cycle around the ring. On a single channel the
  // dependency graph is cyclic; the dateline VC classes break it.
  const TorusTopology topology(8, 8);
  CommSet comms;
  Routing routing;
  for (std::int32_t k = 0; k < 8; ++k) {
    const Coord src{0, k};
    const Coord snk{0, (k + 2) % 8};
    comms.push_back(Communication{src, snk, 100.0});
    CommRouting routed;
    routed.flows.push_back(RoutedFlow{topology.canonical_path(src, snk), 100.0});
    routing.per_comm.push_back(std::move(routed));
  }
  ASSERT_TRUE(validate_structure(topology, comms, routing).ok);
  // Single physical channel: the ring deadlocks (Dally & Seitz cycle).
  ChannelDependencyGraph single(static_cast<std::size_t>(topology.num_links()));
  for (const CommRouting& routed : routing.per_comm) {
    const Path& path = routed.flows.front().path;
    for (std::size_t h = 0; h + 1 < path.links.size(); ++h) {
      single[static_cast<std::size_t>(path.links[h])].push_back(path.links[h + 1]);
    }
  }
  EXPECT_TRUE(find_dependency_cycle(single).has_value());
  // With the topology's VC classes the expanded graph is acyclic.
  EXPECT_TRUE(verify_vc_acyclic(topology, routing));
}

// -- The generic policy analogues --------------------------------------------

TEST(TopoRouter, TwoChangePathsEnumerateShortestOnly) {
  const TorusTopology topology(6, 6);
  const std::vector<Path> paths = two_change_paths(topology, {0, 0}, {2, 2});
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front(), topology.canonical_path({0, 0}, {2, 2}));
  for (const Path& path : paths) {
    EXPECT_EQ(path.length(), topology.distance({0, 0}, {2, 2}));
    std::int32_t changes = 0;
    for (std::size_t h = 1; h < path.links.size(); ++h) {
      if (topology.link(path.links[h]).dir != topology.link(path.links[h - 1]).dir) {
        ++changes;
      }
    }
    EXPECT_LE(changes, 2);
  }
  // No duplicates in the enumeration.
  for (std::size_t a = 0; a < paths.size(); ++a) {
    for (std::size_t b = a + 1; b < paths.size(); ++b) {
      EXPECT_NE(paths[a], paths[b]);
    }
  }
}

TEST(TopoRouter, AnaloguesAreDeterministicAndOrdered) {
  const PowerModel model = PowerModel::paper_discrete();
  for (const TopoKind kind : {TopoKind::kTorus, TopoKind::kDiag}) {
    const auto topology = make_topology(kind, 6, 6);
    const CommSet comms = small_workload(6, 6, 24);
    for (const RouterKind router : all_base_routers()) {
      const RouteResult a = route_on(*topology, router, comms, model);
      const RouteResult b = route_on(*topology, router, comms, model);
      ASSERT_TRUE(a.routing.has_value());
      ASSERT_TRUE(b.routing.has_value());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.power),
                std::bit_cast<std::uint64_t>(b.power))
          << to_cstring(kind) << "/" << to_cstring(router);
      for (std::size_t i = 0; i < comms.size(); ++i) {
        EXPECT_EQ(a.routing->per_comm[i].flows.front().path,
                  b.routing->per_comm[i].flows.front().path);
      }
    }
    // BEST is the min-power valid base result.
    const RouteResult best = route_on(*topology, RouterKind::kBest, comms, model);
    double min_power = 0.0;
    bool any = false;
    for (const RouterKind router : all_base_routers()) {
      const RouteResult result = route_on(*topology, router, comms, model);
      if (!result.valid) continue;
      if (!any || result.power < min_power) min_power = result.power;
      any = true;
    }
    ASSERT_TRUE(any);
    EXPECT_TRUE(best.valid);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(best.power),
              std::bit_cast<std::uint64_t>(min_power));
  }
}

/// FNV-1a over every routed link id (with each path's length as a
/// separator), then the validity flag and the bits of the power; a result
/// without a routing (BEST with no valid base result) hashes only the last
/// two.
std::uint64_t routing_hash(const RouteResult& result) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  if (result.routing.has_value()) {
    for (const CommRouting& comm : result.routing->per_comm) {
      for (const RoutedFlow& flow : comm.flows) {
        mix(flow.path.links.size());
        for (const LinkId link : flow.path.links) mix(static_cast<std::uint64_t>(link));
      }
    }
  }
  mix(result.valid ? 1 : 0);
  mix(std::bit_cast<std::uint64_t>(result.power));
  return hash;
}

TEST(TopoRouter, RoutingsArePinned) {
  // Every policy analogue plus BEST on torus and diag instances, hashed over
  // link ids and power bits. Run-twice, thread-count and driver
  // differentials cannot see a change that moves every answer the same
  // way; these pins can. The weight scales put light rows (every policy
  // valid) next to loaded ones (some or all fail). Columns follow
  // all_base_routers() (XY, SG, IG, TB, XYI, PR), then BEST.
  struct PinCase {
    TopoKind kind;
    std::int32_t p, q, n;
    double scale;
    std::uint64_t pins[7];
  };
  const PinCase cases[] = {
      {TopoKind::kTorus, 6, 6, 24, 1.0,
       {0xbdd4de7a85841e9c, 0xcc56f3e3e70246ab, 0xcaa31e8eb37378fa,
        0x989f9c0b4e2846b4, 0x91f8d49c429ed8c1, 0x09196eea6a62e59d, 0x91f8d49c429ed8c1}},
      {TopoKind::kTorus, 5, 4, 30, 2.0,
       {0xd251a962f3917c96, 0x535ae6da661c94ee, 0x535ae6da661c94ee,
        0x535ae6da661c94ee, 0x04a86ccdd40ab96e, 0x04a86ccdd40ab96e, 0x535ae6da661c94ee}},
      {TopoKind::kTorus, 8, 8, 48, 2.25,
       {0x9afc99074c113641, 0x56f4a91396a845be, 0xde876b9dcc4baf09,
        0x29749d7be4b87789, 0xf9ae0db3bbbdc550, 0xf9b4b2bd679f84c3, 0xf9ae0db3bbbdc550}},
      {TopoKind::kTorus, 8, 8, 48, 3.0,
       {0x9afc99074c113641, 0x02b653c266dfc1c1, 0x03b8cef5f84a760d,
        0xd0db7f4e27fb1c15, 0xba02315f28af3311, 0x6398e82c32fa04f9, 0x88201fb960ff6465}},
      {TopoKind::kDiag, 6, 6, 24, 1.0,
       {0x8529afef0d789ec9, 0x26dddc86d2d18db3, 0x9c27f0876e2395da,
        0x6f1a62ab8d03cbaf, 0xe1272057ecbafc1b, 0x2815d265f790f48a, 0x2815d265f790f48a}},
      {TopoKind::kDiag, 4, 5, 20, 2.5,
       {0x7f126390f0b64528, 0x7f126390f0b64528, 0x7f126390f0b64528,
        0x7f126390f0b64528, 0x6685e716dd93fa38, 0x63db23c3099bc201, 0x6685e716dd93fa38}},
      {TopoKind::kDiag, 8, 8, 48, 3.0,
       {0x23248a0e1d991a4c, 0xdbd5f1307bf47cee, 0x58c58f1f18efb858,
        0x936235dfdfb452cc, 0xa0f6f1905e4513ec, 0xb6f0ef560495fb5c, 0xa0f6f1905e4513ec}},
  };
  const PowerModel model = PowerModel::paper_discrete();
  std::vector<RouterKind> kinds = all_base_routers();
  kinds.push_back(RouterKind::kBest);
  for (const PinCase& pin : cases) {
    const auto topology = make_topology(pin.kind, pin.p, pin.q);
    CommSet comms = small_workload(pin.p, pin.q, pin.n);
    for (Communication& comm : comms) comm.weight *= pin.scale;
    for (std::size_t col = 0; col < kinds.size(); ++col) {
      const RouteResult result = route_on(*topology, kinds[col], comms, model);
      EXPECT_EQ(routing_hash(result), pin.pins[col])
          << to_cstring(pin.kind) << " " << pin.p << "x" << pin.q << " x"
          << pin.scale << " " << to_cstring(kinds[col]) << " valid=" << result.valid
          << " hash=0x" << std::hex << routing_hash(result);
    }
  }
}

TEST(Topology, RectRoutesOnTheMesh) {
  // topo=rect is the Mesh itself: there is no rect Topology to build.
  try {
    (void)make_topology(TopoKind::kRect, 4, 4);
    ADD_FAILURE() << "topo=rect built a Topology";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("route on the Mesh"), std::string::npos)
        << error.what();
  }
}

TEST(TopoValidate, CommSetMessagesArePinned) {
  // Every rejection of the topology check_comm_set, with its exact message
  // (the text after the PAMR_CHECK expression and source location).
  const TorusTopology topology(4, 4);
  const auto message = [&](const CommSet& comms) -> std::string {
    try {
      check_comm_set(topology, comms);
    } catch (const std::logic_error& error) {
      const std::string what = error.what();
      const std::string separator = " — ";
      const std::size_t at = what.find(separator);
      return at == std::string::npos ? what : what.substr(at + separator.size());
    }
    ADD_FAILURE() << "no rejection";
    return {};
  };
  const Communication good{{0, 0}, {2, 3}, 400.0};
  check_comm_set(topology, {good});
  EXPECT_EQ(message({good, {{4, 0}, {1, 1}, 100.0}}),
            "communication #1 C(4,0)->C(1,1) @ 100.0 Mb/s: source outside the topology");
  EXPECT_EQ(message({{{0, 0}, {0, -1}, 100.0}}),
            "communication #0 C(0,0)->C(0,-1) @ 100.0 Mb/s: sink outside the topology");
  EXPECT_EQ(message({good, good, {{1, 2}, {1, 2}, 500.0}}),
            "communication #2 C(1,2)->C(1,2) @ 500.0 Mb/s: self-communication (src == snk)");
  EXPECT_EQ(message({good, {{0, 0}, {3, 3}, 0.0}}),
            "communication #1 C(0,0)->C(3,3) @ 0.0 Mb/s: weight must be finite and "
            "strictly positive");
  EXPECT_EQ(message({{{0, 0}, {2, 3}, -125.0}}),
            "communication #0 C(0,0)->C(2,3) @ -125.0 Mb/s: weight must be finite and "
            "strictly positive");
}

TEST(TopoRouter, MalformedInputThrowsForEveryTopology) {
  const PowerModel model = PowerModel::paper_discrete();
  for (const TopoKind kind : {TopoKind::kTorus, TopoKind::kDiag}) {
    const auto topology = make_topology(kind, 4, 4);
    const CommSet self = {Communication{{1, 1}, {1, 1}, 100.0}};
    EXPECT_THROW((void)route_on(*topology, RouterKind::kXY, self, model),
                 std::logic_error);
    const CommSet outside = {Communication{{0, 0}, {9, 0}, 100.0}};
    EXPECT_THROW((void)route_on(*topology, RouterKind::kSG, outside, model),
                 std::logic_error);
  }
}

// -- The topo= scenario axis -------------------------------------------------

TEST(TopoSpec, TextFormRoundTrips) {
  const std::string torus_text =
      "mesh=8x8 model=discrete topo=torus ; kind=uniform n=24 lo=100 hi=1500";
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::parse(torus_text, spec, error)) << error;
  EXPECT_EQ(spec.topo, TopoKind::kTorus);
  EXPECT_EQ(spec.to_string(), torus_text);
  // The default rect is omitted — pre-topology spec text stays byte-stable.
  const std::string rect_text = "mesh=8x8 model=discrete ; kind=uniform n=24"
                                " lo=100 hi=1500";
  ASSERT_TRUE(ScenarioSpec::parse(rect_text, spec, error)) << error;
  EXPECT_EQ(spec.topo, TopoKind::kRect);
  EXPECT_EQ(spec.to_string(), rect_text);
  ASSERT_TRUE(ScenarioSpec::parse(rect_text + " ", spec, error)) << error;
  EXPECT_EQ(spec.to_string().find(" topo="), std::string::npos);
  // Explicit topo=rect parses and prints back without the key.
  ASSERT_TRUE(ScenarioSpec::parse(
      "mesh=4x4 model=theory topo=rect ; kind=uniform n=4 lo=100 hi=200", spec,
      error))
      << error;
  EXPECT_EQ(spec.to_string().find(" topo="), std::string::npos);
  // diag round-trips too.
  const std::string diag_text =
      "mesh=6x6 model=theory topo=diag ; kind=uniform n=10 lo=100 hi=900";
  ASSERT_TRUE(ScenarioSpec::parse(diag_text, spec, error)) << error;
  EXPECT_EQ(spec.to_string(), diag_text);
}

TEST(TopoSpec, Rejections) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ScenarioSpec::parse(
      "mesh=8x8 model=discrete topo=bogus ; kind=uniform n=4 lo=1 hi=2", spec,
      error));
  EXPECT_NE(error.find("bad topo"), std::string::npos) << error;
  // The cycle simulator is rect-only.
  EXPECT_FALSE(ScenarioSpec::parse(
      "mesh=8x8 model=discrete topo=torus sim=on cycles=100 warmup=10"
      " ; kind=uniform n=4 lo=1 hi=2",
      spec, error));
  EXPECT_NE(error.find("sim=on needs topo=rect"), std::string::npos) << error;
  // Placement optimization scores by mesh-routed power: rect-only.
  EXPECT_FALSE(ScenarioSpec::parse(
      "mesh=8x8 model=discrete topo=diag ; kind=apps apps=pipeline:3:600"
      " place=optimized",
      spec, error));
  EXPECT_NE(error.find("place=optimized needs topo=rect"), std::string::npos)
      << error;
}

TEST(TopoSpec, RegistryEntriesResolve) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const Scenario& compare = registry.at("topology_compare");
  ASSERT_EQ(compare.points.size(), 6u);
  EXPECT_EQ(compare.points[0].spec.topo, TopoKind::kRect);
  EXPECT_EQ(compare.points[1].spec.topo, TopoKind::kTorus);
  EXPECT_EQ(compare.points[2].spec.topo, TopoKind::kDiag);
  // Points k and k+3 share the workload parameters, differing in weights.
  EXPECT_EQ(compare.points[0].spec.layers, compare.points[1].spec.layers);
  const Scenario& scaling = registry.at("topology_scaling");
  for (const auto& point : scaling.points) {
    EXPECT_EQ(point.spec.topo, TopoKind::kTorus);
    EXPECT_EQ(point.spec.mesh_p, point.spec.mesh_q);
  }
}

// -- Differential determinism ------------------------------------------------

TEST(TopologyDifferential, TopologyCompareThreadInvariant) {
  // The registry scenario through the in-process runner: 1 thread vs 4,
  // aggregates bitwise identical. (CI's topology smoke runs the same
  // scenario through pamr_scenarios and pamr_dist and diffs the files.)
  const Scenario& scenario = ScenarioRegistry::builtin().at("topology_compare");
  (void)suitetest::expect_thread_count_invariant(scenario, 4, 2);
}

#ifdef PAMR_DIST_BIN

void expect_spec_differential(const std::string& spec_text, std::int32_t trials,
                              std::size_t chunk, const std::string& tag) {
  const Scenario adhoc = suitetest::adhoc_scenario(spec_text);
  suitetest::expect_suite_differential(adhoc, "--spec '" + spec_text + "'", trials,
                                       chunk, tag);
}

TEST(TopologyDifferential, TorusSuite) {
  // Odd × even torus dimensions exercise both ring-parity branches.
  expect_spec_differential(
      "mesh=5x4 model=discrete topo=torus ; kind=uniform n=12 lo=100 hi=1500", 12,
      4, "torus");
}

TEST(TopologyDifferential, DiagSuite) {
  expect_spec_differential(
      "mesh=4x5 model=discrete topo=diag ; kind=uniform n=12 lo=100 hi=1500", 12,
      4, "diag");
}

#endif  // PAMR_DIST_BIN

}  // namespace
}  // namespace topo
}  // namespace pamr
