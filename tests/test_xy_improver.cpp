// XYI differential + convergence suite: the incremental implementation
// (CrossingIndex + LoadIndex + per-slot candidate cache) must reproduce the
// reference loop bit for bit — same paths, same power, same move count —
// across mesh shapes, seeds and comm counts, including exact-tie workloads
// (equal weights make whole corridors carry exactly equal loads, which is
// where the stable-sort tie-break history and the paper's preferred-side
// move priority are observable) and the registry's structured traffic
// suites. Every run also asserts non-truncation: the scaled move cap must
// never bite on these instances.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pamr/comm/generator.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/path.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/util/rng.hpp"
#include "structured_inputs.hpp"

namespace pamr {
namespace {

struct BothResults {
  RouteResult ref;
  RouteResult inc;
};

BothResults route_both(const Mesh& mesh, const CommSet& comms, const PowerModel& model) {
  return {XYImproverRouter(XYImproverRouter::Mode::kReference).route(mesh, comms, model),
          XYImproverRouter().route(mesh, comms, model)};
}

void expect_identical(const Mesh& mesh, const CommSet& comms, const std::string& label,
                      const PowerModel& model = PowerModel::paper_discrete()) {
  const auto [ref, inc] = route_both(mesh, comms, model);

  ASSERT_TRUE(ref.routing.has_value()) << label;
  ASSERT_TRUE(inc.routing.has_value()) << label;
  EXPECT_EQ(ref.valid, inc.valid) << label;
  EXPECT_EQ(ref.power, inc.power) << label;  // bitwise: same routing, same sum
  EXPECT_EQ(ref.local_search.moves, inc.local_search.moves) << label;
  // Non-truncation: the scaled cap must never silently truncate these runs.
  EXPECT_TRUE(ref.local_search.converged) << label;
  EXPECT_TRUE(inc.local_search.converged) << label;
  ASSERT_EQ(ref.routing->per_comm.size(), inc.routing->per_comm.size()) << label;
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const auto& ref_flows = ref.routing->per_comm[i].flows;
    const auto& inc_flows = inc.routing->per_comm[i].flows;
    ASSERT_EQ(ref_flows.size(), 1u) << label;
    ASSERT_EQ(inc_flows.size(), 1u) << label;
    EXPECT_EQ(ref_flows[0].path.links, inc_flows[0].path.links) << label << " comm " << i;
  }
}

TEST(XyImproverDifferential, DefaultModeIsIncremental) {
  EXPECT_EQ(XYImproverRouter().mode(), XYImproverRouter::Mode::kIncremental);
  EXPECT_EQ(XYImproverRouter(XYImproverRouter::Mode::kReference).mode(),
            XYImproverRouter::Mode::kReference);
}

using MeshShape = std::pair<int, int>;

class XyImproverDifferentialSweep : public ::testing::TestWithParam<MeshShape> {};

TEST_P(XyImproverDifferentialSweep, UniformWorkloadsAreBitIdentical) {
  const auto [p, q] = GetParam();
  const Mesh mesh(p, q);
  for (const std::uint64_t seed : {1ull, 2ull, 0xBEEFull}) {
    for (const std::int32_t nc : {1, 8, 40, 120}) {
      Rng rng(seed);
      UniformWorkload spec;
      spec.num_comms = nc;
      const CommSet comms = generate_uniform(mesh, spec, rng);
      expect_identical(mesh, comms,
                       std::to_string(p) + "x" + std::to_string(q) + " seed=" +
                           std::to_string(seed) + " nc=" + std::to_string(nc));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, XyImproverDifferentialSweep,
                         ::testing::Values(MeshShape(4, 4), MeshShape(8, 8),
                                           MeshShape(16, 16), MeshShape(3, 9),
                                           MeshShape(1, 12), MeshShape(9, 2)),
                         [](const auto& param_info) {
                           return std::to_string(param_info.param.first) + "x" +
                                  std::to_string(param_info.param.second);
                         });

TEST(XyImproverDifferential, ScaledMeshIsBitIdentical) {
  // 32×32; nc kept moderate because the reference side re-sorts all 3968
  // links per move.
  const Mesh mesh(32, 32);
  for (const std::uint64_t seed : {1ull, 0xBEEFull}) {
    for (const std::int32_t nc : {40, 100}) {
      Rng rng(seed);
      UniformWorkload spec;
      spec.num_comms = nc;
      const CommSet comms = generate_uniform(mesh, spec, rng);
      expect_identical(mesh, comms,
                       "32x32 seed=" + std::to_string(seed) + " nc=" + std::to_string(nc));
    }
  }
}

TEST(XyImproverDifferential, EqualWeightTiesAreBitIdentical) {
  // All-equal weights put exactly equal loads on parallel corridors; the
  // move choice then hinges on scan order and the stable-history tie-break.
  for (const auto& [p, q] : {MeshShape(6, 6), MeshShape(8, 8), MeshShape(4, 9)}) {
    const Mesh mesh(p, q);
    Rng rng(derive_seed(0x1F5, static_cast<std::uint64_t>(p),
                        static_cast<std::uint64_t>(q)));
    CommSet comms;
    for (int i = 0; i < 150; ++i) {
      const auto src = static_cast<std::int32_t>(
          rng.below(static_cast<std::uint64_t>(mesh.num_cores())));
      auto snk = src;
      while (snk == src) {
        snk = static_cast<std::int32_t>(
            rng.below(static_cast<std::uint64_t>(mesh.num_cores())));
      }
      comms.push_back(Communication{mesh.core_coord(src), mesh.core_coord(snk), 10.0});
    }
    expect_identical(mesh, comms, "ties " + std::to_string(p) + "x" + std::to_string(q));
  }
}

TEST(XyImproverDifferential, HeavyOverloadIsBitIdentical) {
  // Far past capacity: the constructed routing is invalid under the model,
  // but both implementations must still construct the same one (the search
  // runs on the penalized LoadCost extension).
  const Mesh mesh(5, 5);
  Rng rng(0x0E44);
  UniformWorkload spec;
  spec.num_comms = 60;
  spec.weight_lo = 2000.0;
  spec.weight_hi = 3400.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);
  expect_identical(mesh, comms, "overload 5x5");
}

TEST(XyImproverDifferential, SustainedOverloadAtScaleIsBitIdentical) {
  // The overloaded 32×32/nc=2000 shape scaled for CI: enough communications
  // per corridor that hot links stay far past capacity for most of the
  // descent, so candidate_delta runs through LoadCost's penalty branch
  // rather than the discrete fast path.
  const Mesh mesh(10, 10);
  Rng rng(0x5CA1E);
  UniformWorkload spec;
  spec.num_comms = 240;
  spec.weight_lo = 800.0;
  spec.weight_hi = 3400.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);
  expect_identical(mesh, comms, "sustained overload 10x10");
}

TEST(XyImproverDifferential, StructuredTrafficIsBitIdentical) {
  for (const structured::Instance& instance : structured::instances()) {
    expect_identical(instance.spec.make_mesh(), instance.comms, instance.label,
                     instance.spec.make_model());
  }
}

// ----------------------------------------------------------- count guard --

TEST(XyImproverCountGuard, Mesh16WorkloadCountsArePinned) {
  // A regression to a full rescan per move shows up here as a count, not as
  // a slow run: 16×16, nc=500, weights 100–1500 (the old route16/*/500
  // timing workload). Moves and PR removals are decisions, so they are
  // pinned exactly; slot misses may only fall below the value recorded
  // when slots started tracking the links they read.
  const Mesh mesh(16, 16);
  Rng rng(0xBEEF);
  UniformWorkload spec;
  spec.num_comms = 500;
  spec.weight_lo = 100.0;
  spec.weight_hi = 1500.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);
  const PowerModel model = PowerModel::paper_discrete();

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::reset();
  const RouteResult xyi = XYImproverRouter().route(mesh, comms, model);
  const std::uint64_t misses = obs::snapshot().counter(obs::Metric::kXyiEvalMisses);
  obs::reset();
  (void)PathRemoverRouter().route(mesh, comms, model);
  const std::uint64_t removals = obs::snapshot().counter(obs::Metric::kPrRemovals);
  obs::reset();
  obs::set_enabled(was_enabled);

  EXPECT_EQ(xyi.local_search.moves, 1725u);
  EXPECT_EQ(removals, 5658u);
  EXPECT_LE(misses, 131264u);
}

// ------------------------------------------------------------ edge cases --

TEST(XyImproverEdgeCases, AlreadyOptimalInputAppliesZeroMoves) {
  // Disjoint straight flows: every path is the unique shortest path, no
  // perpendicular step exists to swap — the fixed point is the input.
  const Mesh mesh(4, 4);
  const PowerModel model = PowerModel::paper_discrete();
  const CommSet straight{{{0, 0}, {0, 3}, 800.0},
                         {{1, 0}, {1, 3}, 800.0},
                         {{2, 3}, {2, 0}, 800.0}};
  // An L-shaped single flow is also already optimal: every monotone path
  // has the same link count and carries the same load, so no rotation is
  // strictly improving.
  const CommSet l_shaped{{{0, 0}, {3, 3}, 800.0}};
  for (const CommSet& comms : {straight, l_shaped}) {
    for (const auto mode : {XYImproverRouter::Mode::kReference,
                            XYImproverRouter::Mode::kIncremental}) {
      const RouteResult result = XYImproverRouter(mode).route(mesh, comms, model);
      ASSERT_TRUE(result.valid);
      EXPECT_EQ(result.local_search.moves, 0u);
      EXPECT_TRUE(result.local_search.converged);
    }
  }
}

TEST(XyImproverEdgeCases, SingleCommunicationStaysOnXyPath) {
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  const CommSet comms{{{1, 2}, {5, 6}, 900.0}};
  for (const auto mode : {XYImproverRouter::Mode::kReference,
                          XYImproverRouter::Mode::kIncremental}) {
    const RouteResult result = XYImproverRouter(mode).route(mesh, comms, model);
    ASSERT_TRUE(result.valid);
    EXPECT_EQ(result.local_search.moves, 0u);
    const Path& path = result.routing->per_comm[0].flows[0].path;
    EXPECT_EQ(path, xy_path(mesh, comms[0].src, comms[0].snk));
  }
}

TEST(XyImproverEdgeCases, DegenerateMeshesHaveNoMoves) {
  // On a 1×q or p×1 mesh every path is a straight line: XYI must terminate
  // with zero moves and still produce a structurally valid routing.
  for (const auto& [p, q] : {MeshShape(1, 12), MeshShape(12, 1)}) {
    const Mesh mesh(p, q);
    const PowerModel model = PowerModel::paper_discrete();
    Rng rng(derive_seed(0xD0, static_cast<std::uint64_t>(p),
                        static_cast<std::uint64_t>(q)));
    UniformWorkload spec;
    spec.num_comms = 10;
    const CommSet comms = generate_uniform(mesh, spec, rng);
    for (const auto mode : {XYImproverRouter::Mode::kReference,
                            XYImproverRouter::Mode::kIncremental}) {
      const RouteResult result = XYImproverRouter(mode).route(mesh, comms, model);
      ASSERT_TRUE(result.routing.has_value());
      EXPECT_EQ(result.local_search.moves, 0u);
      EXPECT_TRUE(result.local_search.converged);
    }
  }
}

TEST(XyImproverEdgeCases, EveryMoveStrictlyDecreasesPenalizedPower) {
  // Property: the descent is strictly monotone in the penalized LoadCost
  // total, in both modes, move by move (observed through the trace hook).
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  Rng rng(0xACE);
  UniformWorkload spec;
  spec.num_comms = 80;
  spec.weight_lo = 1200.0;
  spec.weight_hi = 2600.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);

  LinkLoads xy_loads(mesh);
  for (const Communication& comm : comms) {
    xy_loads.add_path(xy_path(mesh, comm.src, comm.snk), comm.weight);
  }
  const LoadCost cost(model);
  const double initial = cost.total(xy_loads.values());

  for (const auto mode : {XYImproverRouter::Mode::kReference,
                          XYImproverRouter::Mode::kIncremental}) {
    XyiTrace trace;
    XYImproverRouter router(mode);
    router.set_trace(&trace);
    const RouteResult result = router.route(mesh, comms, model);
    ASSERT_GT(result.local_search.moves, 0u);  // the workload must force moves
    ASSERT_EQ(trace.penalized_totals.size(), result.local_search.moves);
    double previous = initial;
    for (std::size_t i = 0; i < trace.penalized_totals.size(); ++i) {
      EXPECT_LT(trace.penalized_totals[i], previous) << "move " << i;
      previous = trace.penalized_totals[i];
    }
  }
}

}  // namespace
}  // namespace pamr
