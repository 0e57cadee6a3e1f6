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
#include "pamr/obs/obs.hpp"
#include "pamr/routing/load_index.hpp"
#include "pamr/routing/routers.hpp"
#include "structured_inputs.hpp"

namespace pamr {
namespace {

// ------------------------------------------------------------ LoadIndex --

std::vector<LinkId> order_of(const LoadOrder& order) {
  std::vector<LinkId> links;
  for (std::size_t at = 0; at < order.size(); ++at) links.push_back(order.link_at(at));
  return links;
}

/// The seed's round: a stable_sort of the persistent order vector.
void stable_resort(std::vector<LinkId>& order, const LinkLoads& loads) {
  std::stable_sort(order.begin(), order.end(),
                   [&](LinkId a, LinkId b) { return loads.load(a) > loads.load(b); });
}

/// Sets a stored load to exactly `value` (x + -x is exactly 0), recording
/// its first-touch snapshot as the routers do.
void set_load(LinkLoads& loads, TouchLog& log, LinkId link, double value) {
  log.record(link, loads.load(link));
  loads.add(link, -loads.load(link));
  loads.add(link, value);
}

TEST(LoadIndex, InitialOrderIsLoadDescendingWithLinkIdTies) {
  const Mesh mesh(2, 3);  // 14 links
  LinkLoads loads(mesh);
  loads.add(LinkId{3}, 10.0);
  loads.add(LinkId{7}, 10.0);
  loads.add(LinkId{1}, 25.0);
  const LoadOrder order(mesh.num_links(), loads);
  const LoadIndex index(mesh.num_links(), loads);

  const std::vector<LinkId> links = order_of(order);
  ASSERT_EQ(links.size(), static_cast<std::size_t>(mesh.num_links()));
  EXPECT_EQ(links[0], LinkId{1});
  EXPECT_EQ(links[1], LinkId{3});  // tie with 7 → lower LinkId first
  EXPECT_EQ(links[2], LinkId{7});
  // Idle links follow in LinkId order.
  EXPECT_EQ(links[3], LinkId{0});
  EXPECT_EQ(index.top(), LinkId{1});
}

TEST(LoadIndex, ReorderMatchesRepeatedStableSort) {
  // Property check of XYI's merge update: against a model that re-runs the
  // seed's stable_sort of a persistent order vector every round.
  const Mesh mesh(4, 4);
  const auto num_links = static_cast<std::size_t>(mesh.num_links());
  LinkLoads loads(mesh);
  Rng rng(0x10AD);
  for (std::size_t l = 0; l < num_links; ++l) {
    loads.add(static_cast<LinkId>(l), rng.uniform(0.0, 100.0));
  }
  LoadOrder order(mesh.num_links(), loads);
  TouchLog log(num_links);

  std::vector<LinkId> model_order(num_links);
  std::iota(model_order.begin(), model_order.end(), LinkId{0});
  stable_resort(model_order, loads);

  for (int round = 0; round < 200; ++round) {
    const auto count = 1 + rng.below(5);
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto link = static_cast<LinkId>(rng.below(num_links));
      // Mix fresh values with exact duplicates of other links' loads so the
      // tie path is exercised.
      const double value = (rng.below(2) == 0)
                               ? rng.uniform(0.0, 100.0)
                               : loads.load(static_cast<LinkId>(rng.below(num_links)));
      set_load(loads, log, link, value);
    }
    order.reorder(log.changes, loads);
    log.clear();
    stable_resort(model_order, loads);
    ASSERT_EQ(order_of(order), model_order) << "round " << round;
  }
}

TEST(LoadIndex, TopAndRetireMatchRepeatedStableSort) {
  // PR's winner tree against the literal seed loop: a persistent order
  // vector stable-sorted every round, with retired links skipped. Loads are
  // drawn from a small pool of δ/m shares and copies of other links' loads,
  // so most rounds end with many exact ties.
  const Mesh mesh(6, 6);  // 120 links; about 50 end up retired per seed
  const auto num_links = static_cast<std::size_t>(mesh.num_links());
  constexpr double kWeights[] = {120.0, 600.0, 1500.0};
  for (const std::uint64_t seed : {1ull, 2ull, 0x7EEull}) {
    Rng rng(seed);
    const auto share = [&] {
      return kWeights[rng.below(3)] / static_cast<double>(1 + rng.below(6));
    };
    LinkLoads loads(mesh);
    for (std::size_t l = 0; l < num_links; ++l) {
      if (rng.below(4) != 0) loads.add(static_cast<LinkId>(l), share());
    }
    LoadIndex index(mesh.num_links(), loads);
    TouchLog log(num_links);
    std::vector<LinkId> model_order(num_links);
    std::iota(model_order.begin(), model_order.end(), LinkId{0});
    stable_resort(model_order, loads);
    std::vector<char> retired(num_links, 0);

    for (int round = 0; round < 1200; ++round) {
      const auto count = 1 + rng.below(6);
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto link = static_cast<LinkId>(rng.below(num_links));
        const std::uint64_t kind = rng.below(4);
        const double value =
            kind == 0 ? loads.load(static_cast<LinkId>(rng.below(num_links)))
            : kind == 1 ? share()
            : kind == 2 ? loads.load(link) + share()
                        : std::max(0.0, loads.load(link) - share());
        set_load(loads, log, link, value);
      }
      index.reorder(log.changes, loads);
      log.clear();
      stable_resort(model_order, loads);

      // Retire the current top now and then, as PR does after a fruitless
      // scan; once in a while retire a random live link instead.
      if (rng.below(24) == 0) {
        const LinkId victim = rng.below(2) == 0
                                  ? index.top()
                                  : static_cast<LinkId>(rng.below(num_links));
        if (victim != kInvalidLink && retired[static_cast<std::size_t>(victim)] == 0) {
          retired[static_cast<std::size_t>(victim)] = 1;
          index.retire(victim);
        }
      }
      LinkId expected = kInvalidLink;
      for (const LinkId link : model_order) {
        if (retired[static_cast<std::size_t>(link)] == 0) {
          expected = link;
          break;
        }
      }
      ASSERT_EQ(index.top(), expected) << "seed " << seed << " round " << round;
      for (std::size_t l = 0; l < num_links; ++l) {
        ASSERT_EQ(index.is_retired(static_cast<LinkId>(l)), retired[l] != 0);
      }
    }
    EXPECT_NO_THROW(index.check_invariants(loads));
  }
}

TEST(LoadIndex, RetiredLinksAreNeverReturned) {
  // A retired link never comes back from top(), even once its load rises to
  // the maximum and is reported. (XYI never retires a link, so its
  // LoadOrder has no retire.)
  const Mesh mesh(2, 2);
  const auto num_links = static_cast<std::size_t>(mesh.num_links());
  LinkLoads loads(mesh);
  for (LinkId l = 0; l < mesh.num_links(); ++l) loads.add(l, 1.0 + l);
  LoadIndex index(mesh.num_links(), loads);
  const auto top = static_cast<LinkId>(num_links - 1);
  ASSERT_EQ(index.top(), top);

  index.retire(top);
  EXPECT_TRUE(index.is_retired(top));
  EXPECT_EQ(index.top(), top - 1);
  TouchLog log(num_links);
  set_load(loads, log, top, 100.0);
  index.reorder(log.changes, loads);
  EXPECT_EQ(index.top(), top - 1);

  for (LinkId l = 0; l < mesh.num_links(); ++l) {
    if (!index.is_retired(l)) index.retire(l);
  }
  EXPECT_EQ(index.top(), kInvalidLink);
  EXPECT_NO_THROW(index.check_invariants(loads));
}

// -------------------------------------------------------------- counters --

TEST(LoadIndex, CountersArePinnedOnPaperInstances) {
  // One rank update per PR removal and per XYI move, and PR's retirement and
  // removal totals, on three §6 instances; values recorded before the
  // winner tree replaced the merge-maintained order.
  struct Pin {
    const char* scenario;
    std::size_t point;
    std::uint64_t instance;
    std::uint64_t pr_removals;
    std::uint64_t pr_retired;
    std::uint64_t pr_reorders;
    std::uint64_t xyi_reorders;
  };
  const Pin pins[] = {
      {"fig7a_small", 3, 0, 192, 139, 192, 36},
      {"fig7a_small", 9, 1, 353, 198, 353, 65},
      {"fig7b_mixed", 5, 0, 165, 148, 165, 36},
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  for (const Pin& pin : pins) {
    const scenario::Scenario& suite = scenario::ScenarioRegistry::builtin().at(pin.scenario);
    const scenario::ScenarioSpec& spec = suite.points.at(pin.point).spec;
    const Mesh mesh = spec.make_mesh();
    const PowerModel model = spec.make_model();
    Rng rng(derive_seed(suite.default_seed, pin.point, pin.instance));
    const CommSet comms = spec.generate(mesh, model, 0.0, rng);
    const std::string label = std::string(pin.scenario) + " point=" +
                              std::to_string(pin.point) +
                              " instance=" + std::to_string(pin.instance);

    obs::reset();
    (void)PathRemoverRouter().route(mesh, comms, model);
    const obs::Snapshot pr = obs::snapshot();
    EXPECT_EQ(pr.counter(obs::Metric::kPrRemovals), pin.pr_removals) << label;
    EXPECT_EQ(pr.counter(obs::Metric::kPrLinksRetired), pin.pr_retired) << label;
    EXPECT_EQ(pr.counter(obs::Metric::kLoadIndexReorders), pin.pr_reorders) << label;

    obs::reset();
    (void)XYImproverRouter().route(mesh, comms, model);
    const obs::Snapshot xyi = obs::snapshot();
    EXPECT_EQ(xyi.counter(obs::Metric::kLoadIndexReorders), pin.xyi_reorders) << label;
    EXPECT_EQ(xyi.counter(obs::Metric::kXyiMoves), pin.xyi_reorders) << label;
  }
  obs::reset();
  obs::set_enabled(was_enabled);
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
  // The overloaded 32×32/nc=2000 shape scaled for CI: many overlapping
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
