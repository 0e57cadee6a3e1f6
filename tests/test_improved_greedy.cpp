// IG differential suite: the incremental implementation (per-communication
// cut cache answering the §5.2 lower bound from windowed minima over cached
// link costs) must reproduce the reference loop — a full sub-rectangle
// rescan per candidate per hop — bit for bit: same paths, same power,
// same kIgCutBounds telemetry. Equal-weight workloads make whole cuts
// carry exactly equal bounds, which is where the strict-< vertical-first
// tie-break is observable; the overload fixtures drive every bound through
// the penalty branch of LoadCost.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "pamr/comm/generator.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/routing/reference_routers.hpp"
#include "pamr/util/rng.hpp"

namespace pamr {
namespace {

void expect_identical(const Mesh& mesh, const CommSet& comms,
                      const std::string& label) {
  const PowerModel model = PowerModel::paper_discrete();
  const RouteResult ref = ReferenceImprovedGreedyRouter().route(mesh, comms, model);
  const RouteResult inc = ImprovedGreedyRouter().route(mesh, comms, model);

  ASSERT_TRUE(ref.routing.has_value()) << label;
  ASSERT_TRUE(inc.routing.has_value()) << label;
  EXPECT_EQ(ref.valid, inc.valid) << label;
  EXPECT_EQ(ref.power, inc.power) << label;  // bitwise: same routing, same sum
  ASSERT_EQ(ref.routing->per_comm.size(), inc.routing->per_comm.size()) << label;
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const auto& ref_flows = ref.routing->per_comm[i].flows;
    const auto& inc_flows = inc.routing->per_comm[i].flows;
    ASSERT_EQ(ref_flows.size(), 1u) << label;
    ASSERT_EQ(inc_flows.size(), 1u) << label;
    EXPECT_EQ(ref_flows[0].path.links, inc_flows[0].path.links)
        << label << " comm " << i;
  }
}

using MeshShape = std::pair<int, int>;

class ImprovedGreedyDifferentialSweep
    : public ::testing::TestWithParam<MeshShape> {};

TEST_P(ImprovedGreedyDifferentialSweep, UniformWorkloadsAreBitIdentical) {
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

INSTANTIATE_TEST_SUITE_P(Shapes, ImprovedGreedyDifferentialSweep,
                         ::testing::Values(MeshShape(4, 4), MeshShape(8, 8),
                                           MeshShape(16, 16), MeshShape(3, 9),
                                           MeshShape(1, 12), MeshShape(9, 2)),
                         [](const auto& param_info) {
                           return std::to_string(param_info.param.first) + "x" +
                                  std::to_string(param_info.param.second);
                         });

TEST(ImprovedGreedyDifferential, EqualWeightTiesAreBitIdentical) {
  // All-equal weights put exactly equal bounds on whole cuts; the descent
  // then hinges entirely on the vertical-first strict-< tie-break.
  for (const auto& [p, q] : {MeshShape(6, 6), MeshShape(8, 8), MeshShape(4, 9)}) {
    const Mesh mesh(p, q);
    Rng rng(derive_seed(0x16BD, static_cast<std::uint64_t>(p),
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
    expect_identical(mesh, comms,
                     "ties " + std::to_string(p) + "x" + std::to_string(q));
  }
}

TEST(ImprovedGreedyDifferential, HeavyOverloadIsBitIdentical) {
  // Far past capacity: every bound evaluation takes LoadCost's penalty
  // branch, so the cut cache serves memoized overload costs throughout.
  const Mesh mesh(5, 5);
  Rng rng(0x0E45);
  UniformWorkload spec;
  spec.num_comms = 60;
  spec.weight_lo = 2000.0;
  spec.weight_hi = 3400.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);
  expect_identical(mesh, comms, "overload 5x5");
}

TEST(ImprovedGreedyDifferential, SustainedOverloadAtScaleIsBitIdentical) {
  // The overloaded 32×32/nc=2000 shape scaled for CI: enough communications
  // per link that loads stay far past capacity through the whole pass.
  const Mesh mesh(10, 10);
  Rng rng(0x5CA1E);
  UniformWorkload spec;
  spec.num_comms = 300;
  spec.weight_lo = 800.0;
  spec.weight_hi = 3400.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);
  expect_identical(mesh, comms, "sustained overload 10x10");
}

TEST(ImprovedGreedyDifferential, CutBoundCounterMatchesTheReference) {
  // kIgCutBounds is a unit-scoped counter (pinned by the observability
  // contract): the cache must evaluate the bound exactly as many times as
  // the reference does, or distributed/sequential metric reports diverge.
  const Mesh mesh(8, 8);
  Rng rng(0x0B5C);
  UniformWorkload spec;
  spec.num_comms = 80;
  const CommSet comms = generate_uniform(mesh, spec, rng);
  const PowerModel model = PowerModel::paper_discrete();

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::reset();
  (void)ReferenceImprovedGreedyRouter().route(mesh, comms, model);
  const std::uint64_t ref_bounds =
      obs::snapshot().counter(obs::Metric::kIgCutBounds);
  obs::reset();
  (void)ImprovedGreedyRouter().route(mesh, comms, model);
  const std::uint64_t inc_bounds =
      obs::snapshot().counter(obs::Metric::kIgCutBounds);
  obs::reset();
  obs::set_enabled(was_enabled);

  EXPECT_GT(ref_bounds, 0u);
  EXPECT_EQ(ref_bounds, inc_bounds);
}

}  // namespace
}  // namespace pamr
