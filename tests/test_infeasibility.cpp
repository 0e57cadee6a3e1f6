// Tests for the infeasibility certificate (routing/infeasibility.hpp):
//
//   * boundary cases of each rule, on both sides of the limit;
//   * soundness: across every rectangular scenario of the registry, no
//     certified instance gets a valid routing from any of the six policies;
//   * the certified counts of the paper's Figure 7a/7b sweeps are pinned,
//     and exp::run_instance skips exactly those instances.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "pamr/exp/instance_runner.hpp"
#include "pamr/routing/infeasibility.hpp"
#include "pamr/routing/router.hpp"
#include "pamr/scenario/suite_runner.hpp"
#include "pamr/util/rng.hpp"

namespace pamr {
namespace {

const Mesh kMesh(8, 8);

bool certified(const CommSet& comms) {
  return no_feasible_manhattan_routing(kMesh, comms, PowerModel::paper_discrete());
}

bool any_policy_routes(const Mesh& mesh, const CommSet& comms, const PowerModel& model) {
  for (const RouterKind kind : all_base_routers()) {
    if (make_router(kind)->route(mesh, comms, model).valid) return true;
  }
  return false;
}

// Two row-0 communications whose only paths share the link C(0,1)→C(0,2).
CommSet shared_row_link(double weight) {
  return {{{0, 0}, {0, 2}, weight}, {{0, 1}, {0, 3}, weight}};
}

// Communications from C(3,3) into its south-east quadrant: every first hop
// is C(3,3)→C(3,4) or C(3,3)→C(4,3).
CommSet south_east_egress(double weight, int count) {
  const Coord sinks[] = {{7, 7}, {6, 7}, {7, 6}, {5, 7}, {7, 5}};
  CommSet comms;
  for (int i = 0; i < count; ++i) comms.push_back({{3, 3}, sinks[i], weight});
  return comms;
}

TEST(Infeasibility, SharedRowLinkOverCapacityIsCertified) {
  // 3600 > 3500 on one link; both weights are also above cap/2.
  EXPECT_TRUE(certified(shared_row_link(1800.0)));
  EXPECT_FALSE(any_policy_routes(kMesh, shared_row_link(1800.0),
                                 PowerModel::paper_discrete()));
}

TEST(Infeasibility, SharedRowLinkAtExactCapacityIsNot) {
  // 1750 + 1750 is exactly 3500: feasible, and XY finds it.
  EXPECT_FALSE(certified(shared_row_link(1750.0)));
  EXPECT_TRUE(make_router(RouterKind::kXY)
                  ->route(kMesh, shared_row_link(1750.0), PowerModel::paper_discrete())
                  .valid);
}

TEST(Infeasibility, CoreEgressAboveTwoLinksIsCertified) {
  // 5 × 1500 = 7500 > 2·3500 must leave C(3,3) on two links. No weight is
  // above cap/2, and every cut has room: only the core test sees it.
  EXPECT_TRUE(certified(south_east_egress(1500.0, 5)));
  // 4 × 1750 = 7000 fits exactly.
  EXPECT_FALSE(certified(south_east_egress(1750.0, 4)));
  // Three weights above cap/2 cannot share two links.
  EXPECT_TRUE(certified(south_east_egress(1800.0, 3)));
}

TEST(Infeasibility, SingleWeightAboveCapacityIsCertified) {
  EXPECT_TRUE(certified({{{2, 2}, {5, 6}, 3500.5}}));
  EXPECT_FALSE(certified({{{2, 2}, {5, 6}, 3500.0}}));
}

TEST(Infeasibility, LaneIntervalHallBound) {
  // Eastbound across the cut between columns 3 and 4: five comms confined
  // to rows [0, 1] carry 5 × 1500 = 7500 > 2·3500, though the cut has eight
  // rows, no weight is above cap/2 and no core sends or receives two.
  const CommSet comms{{{0, 0}, {1, 7}, 1500.0},
                      {{1, 0}, {0, 7}, 1500.0},
                      {{0, 1}, {1, 6}, 1500.0},
                      {{1, 1}, {0, 6}, 1500.0},
                      {{0, 2}, {1, 5}, 1500.0}};
  EXPECT_TRUE(certified(comms));
  // With one of them free to cross on row 2, the rest fit rows [0, 1].
  CommSet spread = comms;
  spread[4].snk = {2, 5};
  EXPECT_FALSE(certified(spread));
}

TEST(Infeasibility, TheoryModelNeverCertifies) {
  const PowerModel theory = PowerModel::theory();
  for (const CommSet& comms :
       {shared_row_link(1800.0), south_east_egress(1500.0, 5), south_east_egress(1800.0, 3),
        CommSet{{{2, 2}, {5, 6}, 3500.5}}}) {
    EXPECT_FALSE(no_feasible_manhattan_routing(kMesh, comms, theory));
  }
}

TEST(Infeasibility, RunInstanceSkipsCertifiedInstances) {
  const PowerModel model = PowerModel::paper_discrete();
  const exp::InstanceSample sample =
      exp::run_instance(kMesh, shared_row_link(1800.0), model);
  EXPECT_TRUE(sample.certified);
  for (const exp::HeuristicSample& series : sample.series) {
    EXPECT_FALSE(series.valid);
    EXPECT_EQ(series.elapsed_ms, 0.0);
  }
  EXPECT_FALSE(exp::run_instance(kMesh, shared_row_link(1750.0), model).certified);
  // Malformed input still throws before the certificate runs.
  EXPECT_THROW((void)exp::run_instance(kMesh, {{{0, 0}, {0, 0}, 10.0}}, model),
               std::logic_error);
  EXPECT_THROW((void)exp::run_instance(kMesh, {{{0, 0}, {0, 3}, -5.0}}, model),
               std::logic_error);
}

TEST(Infeasibility, NoCertifiedInstanceRoutesOnAnyRegistryScenario) {
  // The trace suites reference committed files relative to the repo root.
  ASSERT_EQ(setenv("PAMR_TRACE_DIR", PAMR_REPO_DIR, /*overwrite=*/1), 0);
  constexpr std::size_t kDraws = 3;
  std::size_t checked = 0;
  std::size_t certified_count = 0;
  const scenario::ScenarioRegistry& registry = scenario::ScenarioRegistry::builtin();
  for (const scenario::Scenario& suite : registry.scenarios()) {
    for (std::size_t point = 0; point < suite.points.size(); ++point) {
      const scenario::ScenarioSpec& spec = suite.points[point].spec;
      if (spec.topo != topo::TopoKind::kRect) continue;
      const Mesh mesh = spec.make_mesh();
      const PowerModel model = spec.make_model();
      for (std::size_t draw = 0; draw < kDraws; ++draw) {
        Rng rng(derive_seed(suite.default_seed, point, draw));
        const double t = (static_cast<double>(draw) + 0.5) / static_cast<double>(kDraws);
        const CommSet comms = spec.generate(mesh, model, t, rng);
        ++checked;
        if (!no_feasible_manhattan_routing(mesh, comms, model)) continue;
        ++certified_count;
        EXPECT_FALSE(any_policy_routes(mesh, comms, model))
            << suite.name << " point " << point << " draw " << draw;
      }
    }
  }
  // The battery must exercise the claim, not pass vacuously.
  EXPECT_GT(certified_count, checked / 20) << certified_count << " of " << checked;
}

std::size_t certified_in(const char* name, std::size_t& instances) {
  scenario::SuiteOptions options;
  options.instances = 16;
  options.threads = 1;
  const scenario::ScenarioResult result =
      scenario::SuiteRunner(options)
          .run_all({{&scenario::ScenarioRegistry::builtin().at(name), 1}})
          .front();
  std::size_t count = 0;
  instances = 0;
  for (const scenario::ScenarioPointResult& point : result.points) {
    count += point.aggregate.certified();
    instances += point.aggregate.instances;
    // A certified instance fails every series, BEST included.
    EXPECT_GE(point.aggregate.failures[exp::kBestSeries], point.aggregate.certified());
  }
  return count;
}

TEST(Infeasibility, PaperSweepCertifiedCountsArePinned) {
  std::size_t instances = 0;
  EXPECT_EQ(certified_in("fig7a_small", instances), 60u);
  EXPECT_EQ(instances, 224u);
  EXPECT_EQ(certified_in("fig7b_mixed", instances), 79u);
  EXPECT_EQ(instances, 224u);
}

}  // namespace
}  // namespace pamr
