// LoadIndex unit tests plus the PR differential suite: the incremental
// removal loop must reproduce the reference implementation bit for bit —
// same paths, same power — across mesh shapes, seeds and comm counts,
// including exact-tie workloads (equal weights make whole cuts carry
// exactly equal loads, which is where the seed's stable-history tie-break
// is observable) and the registry's structured traffic suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "pamr/comm/generator.hpp"
#include "pamr/routing/load_index.hpp"
#include "pamr/routing/routers.hpp"
#include "structured_inputs.hpp"

namespace pamr {
namespace {

// ------------------------------------------------------------ LoadIndex --

std::vector<LinkId> order_of(LoadIndex& index) {
  std::vector<LinkId> order;
  for (std::size_t at = 0; at < index.size(); ++at) {
    if (!index.is_retired(index.link_at(at))) order.push_back(index.link_at(at));
  }
  return order;
}

TEST(LoadIndex, InitialOrderIsLoadDescendingWithLinkIdTies) {
  const Mesh mesh(2, 3);  // 14 links
  LinkLoads loads(mesh);
  loads.add(LinkId{3}, 10.0);
  loads.add(LinkId{7}, 10.0);
  loads.add(LinkId{1}, 25.0);
  LoadIndex index(mesh.num_links(), loads);

  const std::vector<LinkId> order = order_of(index);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(mesh.num_links()));
  EXPECT_EQ(order[0], LinkId{1});
  EXPECT_EQ(order[1], LinkId{3});  // tie with 7 → lower LinkId first
  EXPECT_EQ(order[2], LinkId{7});
  // Idle links follow in LinkId order.
  EXPECT_EQ(order[3], LinkId{0});
}

TEST(LoadIndex, ReorderMatchesRepeatedStableSort) {
  // Property check of the merge update: against a model that re-runs the
  // seed's stable_sort of a persistent order vector every round.
  const Mesh mesh(4, 4);
  const auto num_links = static_cast<std::size_t>(mesh.num_links());
  LinkLoads loads(mesh);
  Rng rng(0x10AD);
  for (std::size_t l = 0; l < num_links; ++l) {
    loads.add(static_cast<LinkId>(l), rng.uniform(0.0, 100.0));
  }
  LoadIndex index(mesh.num_links(), loads);

  std::vector<LinkId> model_order(num_links);
  std::iota(model_order.begin(), model_order.end(), LinkId{0});
  std::stable_sort(model_order.begin(), model_order.end(),
                   [&](LinkId a, LinkId b) { return loads.load(a) > loads.load(b); });

  for (int round = 0; round < 200; ++round) {
    std::vector<LinkId> changed;
    const auto count = 1 + rng.below(5);
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto link = static_cast<LinkId>(rng.below(num_links));
      if (std::find(changed.begin(), changed.end(), link) != changed.end()) continue;
      changed.push_back(link);
      // Mix fresh values with exact duplicates of other links' loads so the
      // tie path is exercised.
      const double value = (rng.below(2) == 0)
                               ? rng.uniform(0.0, 100.0)
                               : loads.load(static_cast<LinkId>(rng.below(num_links)));
      loads.add(link, value - loads.load(link));
    }
    index.reorder(changed, loads);
    std::stable_sort(model_order.begin(), model_order.end(),
                     [&](LinkId a, LinkId b) { return loads.load(a) > loads.load(b); });
    ASSERT_EQ(order_of(index), model_order) << "round " << round;
  }
}

TEST(LoadIndex, RetiredLinksArePurgedOnReorder) {
  const Mesh mesh(2, 2);
  LinkLoads loads(mesh);
  for (LinkId l = 0; l < mesh.num_links(); ++l) loads.add(l, 1.0 + l);
  LoadIndex index(mesh.num_links(), loads);

  index.retire(LinkId{2});
  EXPECT_TRUE(index.is_retired(LinkId{2}));
  // Still present (skipped by callers) until the next reorder…
  EXPECT_EQ(index.size(), static_cast<std::size_t>(mesh.num_links()));
  index.reorder({}, loads);
  // …then gone for good, even if its load later changes.
  EXPECT_EQ(index.size(), static_cast<std::size_t>(mesh.num_links()) - 1);
  loads.add(LinkId{2}, 100.0);
  index.reorder({LinkId{2}}, loads);
  EXPECT_EQ(index.size(), static_cast<std::size_t>(mesh.num_links()) - 1);
  for (std::size_t at = 0; at < index.size(); ++at) {
    EXPECT_NE(index.link_at(at), LinkId{2});
  }
}

TEST(LoadIndex, MemberListsKeepInsertionOrder) {
  const Mesh mesh(2, 2);
  LinkLoads loads(mesh);
  LoadIndex index(mesh.num_links(), loads);
  index.add_member(LinkId{1}, 4);
  index.add_member(LinkId{1}, 0);
  index.add_member(LinkId{1}, 2);
  EXPECT_EQ(index.members(LinkId{1}), (std::vector<std::uint32_t>{4, 0, 2}));
  EXPECT_TRUE(index.members(LinkId{0}).empty());
}

// ---------------------------------------------------------- differential --

void expect_identical(const Mesh& mesh, const CommSet& comms, const std::string& label,
                      const PowerModel& model = PowerModel::paper_discrete()) {
  const RouteResult ref =
      PathRemoverRouter(PathRemoverRouter::Mode::kReference).route(mesh, comms, model);
  const RouteResult inc = PathRemoverRouter().route(mesh, comms, model);

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

TEST(PathRemoverDifferential, DefaultModeIsIncremental) {
  EXPECT_EQ(PathRemoverRouter().mode(), PathRemoverRouter::Mode::kIncremental);
  EXPECT_EQ(PathRemoverRouter(PathRemoverRouter::Mode::kReference).mode(),
            PathRemoverRouter::Mode::kReference);
}

using MeshShape = std::pair<int, int>;

class PathRemoverDifferentialSweep
    : public ::testing::TestWithParam<MeshShape> {};

TEST_P(PathRemoverDifferentialSweep, UniformWorkloadsAreBitIdentical) {
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

INSTANTIATE_TEST_SUITE_P(Shapes, PathRemoverDifferentialSweep,
                         ::testing::Values(MeshShape(4, 4), MeshShape(8, 8),
                                           MeshShape(16, 16), MeshShape(3, 9),
                                           MeshShape(1, 12), MeshShape(9, 2)),
                         [](const auto& param_info) {
                           return std::to_string(param_info.param.first) + "x" +
                                  std::to_string(param_info.param.second);
                         });

TEST(PathRemoverDifferential, EqualWeightTiesAreBitIdentical) {
  // All-equal weights put exactly equal loads on every link of a cut; the
  // removal order then hinges entirely on the stable-history tie-break.
  for (const auto& [p, q] : {MeshShape(6, 6), MeshShape(8, 8), MeshShape(4, 9)}) {
    const Mesh mesh(p, q);
    Rng rng(derive_seed(0x71E5, static_cast<std::uint64_t>(p),
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

TEST(PathRemoverDifferential, HeavyOverloadIsBitIdentical) {
  // Far past capacity: the constructed routing is invalid under the model,
  // but both implementations must still construct the same one.
  const Mesh mesh(5, 5);
  Rng rng(0x0E44);
  UniformWorkload spec;
  spec.num_comms = 60;
  spec.weight_lo = 2000.0;
  spec.weight_hi = 3400.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);
  expect_identical(mesh, comms, "overload 5x5");
}

TEST(PathRemoverDifferential, SustainedOverloadAtScaleIsBitIdentical) {
  // The 32×32/nc=2000 benchmark shape scaled for CI: many overlapping
  // rectangles per link mean long removal runs with repeated prunes per
  // communication and long histories of near-equal loads in the LoadIndex.
  const Mesh mesh(10, 10);
  Rng rng(0x5CA1E);
  UniformWorkload spec;
  spec.num_comms = 240;
  spec.weight_lo = 800.0;
  spec.weight_hi = 3400.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);
  expect_identical(mesh, comms, "sustained overload 10x10");
}

TEST(PathRemoverDifferential, StructuredTrafficIsBitIdentical) {
  for (const structured::Instance& instance : structured::instances()) {
    expect_identical(instance.spec.make_mesh(), instance.comms, instance.label,
                     instance.spec.make_model());
  }
}

}  // namespace
}  // namespace pamr
