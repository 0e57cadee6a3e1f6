// Tests for fail-fast (RouteGoal::kVerdict, routing/router.hpp):
//
//   * a differential over every rectangular scenario of the registry: under
//     the verdict goal each of the six policies and BEST gives the same
//     validity and bit-identical power and breakdown as a complete run, the
//     identical routing when valid, and stops (no routing) only where the
//     complete routing is invalid; the reference routers of IG and PR stop
//     exactly where the incremental ones do;
//   * boundary cases of the stop rule: a load of exactly cap does not stop,
//     an excess beyond the 1e-9 margin does, an excess within it is left to
//     the validator, the last commit alone can trigger a stop, IG's virtual
//     spreads never do, and PR stops before its first removal on
//     straight-line overloads.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>

#include "paper_instances.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/routing/reference_routers.hpp"
#include "pamr/scenario/registry.hpp"
#include "pamr/util/rng.hpp"

namespace pamr {
namespace {

const Mesh kMesh(8, 8);

/// The routers that may stop early.
constexpr RouterKind kStoppers[] = {RouterKind::kXY, RouterKind::kSG, RouterKind::kIG,
                                    RouterKind::kTB, RouterKind::kPR};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_routing(const Routing& a, const Routing& b) {
  if (a.per_comm.size() != b.per_comm.size()) return false;
  for (std::size_t i = 0; i < a.per_comm.size(); ++i) {
    const auto& fa = a.per_comm[i].flows;
    const auto& fb = b.per_comm[i].flows;
    if (fa.size() != fb.size()) return false;
    for (std::size_t f = 0; f < fa.size(); ++f) {
      if (!(fa[f].path == fb[f].path) || !same_bits(fa[f].weight, fb[f].weight)) {
        return false;
      }
    }
  }
  return true;
}

/// Same validity, and bit-identical power and breakdown.
void expect_same_outcome(const RouteResult& a, const RouteResult& b,
                         const std::string& label) {
  EXPECT_EQ(a.valid, b.valid) << label;
  EXPECT_TRUE(same_bits(a.power, b.power)) << label;
  EXPECT_TRUE(same_bits(a.breakdown.total, b.breakdown.total)) << label;
  EXPECT_TRUE(same_bits(a.breakdown.static_part, b.breakdown.static_part)) << label;
  EXPECT_TRUE(same_bits(a.breakdown.dynamic_part, b.breakdown.dynamic_part)) << label;
  EXPECT_EQ(a.breakdown.active_links, b.breakdown.active_links) << label;
}

/// expect_same_outcome, and a routing in both or in neither, identical
/// when present.
void expect_same_result(const RouteResult& a, const RouteResult& b,
                        const std::string& label) {
  expect_same_outcome(a, b, label);
  EXPECT_EQ(a.routing.has_value(), b.routing.has_value()) << label;
  if (a.routing.has_value() && b.routing.has_value()) {
    EXPECT_TRUE(same_routing(*a.routing, *b.routing)) << label;
  }
}

/// `verdict` (a kVerdict result) against `full` (the complete run).
/// Returns true when the verdict call stopped early.
bool expect_same_verdict(const RouteResult& full, const RouteResult& verdict,
                         const std::string& label) {
  expect_same_outcome(full, verdict, label);
  if (!verdict.routing.has_value()) {
    // A stop must be backed by a complete routing that is invalid.
    EXPECT_FALSE(verdict.valid) << label;
    EXPECT_FALSE(full.valid) << label;
    EXPECT_TRUE(full.routing.has_value()) << label;
    return true;
  }
  EXPECT_TRUE(full.routing.has_value() && same_routing(*full.routing, *verdict.routing))
      << label;
  return false;
}

RouteResult route(RouterKind kind, const CommSet& comms, RouteGoal goal) {
  return make_router(kind)->route(kMesh, comms, PowerModel::paper_discrete(), goal);
}

bool stops(RouterKind kind, const CommSet& comms) {
  return !route(kind, comms, RouteGoal::kVerdict).routing.has_value();
}

// Communications on row 0 whose only paths all cross C(0,1)→C(0,2).
CommSet shared_row_link(double weight) {
  return {{{0, 0}, {0, 2}, weight}, {{0, 1}, {0, 3}, weight}};
}

TEST(FailFast, DefaultGoalIsTheCompleteRouting) {
  const CommSet comms = shared_row_link(1800.0);
  for (const RouterKind kind : all_base_routers()) {
    const RouteResult result = make_router(kind)->route(kMesh, comms,
                                                        PowerModel::paper_discrete());
    EXPECT_FALSE(result.valid) << to_cstring(kind);
    EXPECT_TRUE(result.routing.has_value()) << to_cstring(kind);
  }
}

TEST(FailFast, LoadOfExactlyCapacityDoesNotStop) {
  // 1750 + 1750 is exactly 3500 on the shared link: valid.
  for (const RouterKind kind : kStoppers) {
    const RouteResult result = route(kind, shared_row_link(1750.0), RouteGoal::kVerdict);
    EXPECT_TRUE(result.valid) << to_cstring(kind);
    EXPECT_TRUE(result.routing.has_value()) << to_cstring(kind);
  }
}

TEST(FailFast, ExcessBeyondTheMarginStops) {
  // 3500.02 exceeds (3500 + 1e-6)·(1 + 1e-9) ≈ 3500.0000045.
  for (const RouterKind kind : kStoppers) {
    EXPECT_TRUE(stops(kind, shared_row_link(1750.01))) << to_cstring(kind);
  }
  // XYI never stops: its moves take load off links.
  EXPECT_FALSE(stops(RouterKind::kXYI, shared_row_link(1750.01)));
}

TEST(FailFast, ExcessWithinTheMarginIsLeftToTheValidator) {
  // 3500.000002 is over cap + tolerance but within the margin: the call
  // runs to the end and the validator rejects the routing.
  const CommSet comms = shared_row_link(1750.000001);
  for (const RouterKind kind : kStoppers) {
    const RouteResult full = route(kind, comms, RouteGoal::kRouting);
    const RouteResult verdict = route(kind, comms, RouteGoal::kVerdict);
    EXPECT_FALSE(full.valid) << to_cstring(kind);
    EXPECT_FALSE(expect_same_verdict(full, verdict, to_cstring(kind)))
        << to_cstring(kind) << " stopped within the margin";
  }
}

TEST(FailFast, LastCommittedCommunicationCanStop) {
  // Every policy commits the lightest communication last (XY in index
  // order, the others heaviest first); only it overloads C(0,1)→C(0,2):
  // 1500 + 1500 + 600 = 3600. The others are routed first without trouble.
  const CommSet comms{{{4, 4}, {6, 7}, 2000.0},
                      {{0, 0}, {0, 2}, 1500.0},
                      {{0, 1}, {0, 3}, 1500.0},
                      {{2, 5}, {5, 2}, 1000.0},
                      {{0, 0}, {0, 3}, 600.0}};
  for (const RouterKind kind : kStoppers) {
    const RouteResult full = route(kind, comms, RouteGoal::kRouting);
    EXPECT_FALSE(full.valid) << to_cstring(kind);
    EXPECT_TRUE(stops(kind, comms)) << to_cstring(kind);
  }
  // Without the last one, nothing stops and every policy routes it.
  const CommSet fits(comms.begin(), comms.end() - 1);
  for (const RouterKind kind : kStoppers) {
    EXPECT_TRUE(route(kind, fits, RouteGoal::kVerdict).valid) << to_cstring(kind);
  }
}

TEST(FailFast, ImprovedGreedySpreadAloneDoesNotStop) {
  // IG commits the 3000 on C(0,0)→C(0,1) while the 2000's virtual spread
  // still puts 1000 there: 4000 on the link, but only 3000 committed. The
  // 2000 then goes south, and the routing is valid.
  const CommSet comms{{{0, 0}, {0, 1}, 3000.0}, {{0, 0}, {1, 1}, 2000.0}};
  const ImprovedGreedyRouter incremental;
  const ReferenceImprovedGreedyRouter reference;
  const std::array<const Router*, 2> routers{&incremental, &reference};
  for (const Router* router : routers) {
    const RouteResult full = router->route(kMesh, comms, PowerModel::paper_discrete());
    const RouteResult verdict =
        router->route(kMesh, comms, PowerModel::paper_discrete(), RouteGoal::kVerdict);
    EXPECT_TRUE(full.valid);
    EXPECT_FALSE(expect_same_verdict(full, verdict, "IG spread"));
  }
}

TEST(FailFast, PathRemoverStopsBeforeItsFirstRemoval) {
  // Two straight-line communications, each cut a singleton from the start,
  // overload C(0,1)→C(0,2); a third one would need removals.
  CommSet comms = shared_row_link(1800.0);
  comms.push_back({{3, 3}, {6, 6}, 500.0});
  obs::set_enabled(true);
  const PathRemoverRouter incremental;
  const ReferencePathRemoverRouter reference;
  const std::array<const Router*, 2> routers{&incremental, &reference};
  for (const Router* router : routers) {
    obs::reset();
    const RouteResult verdict =
        router->route(kMesh, comms, PowerModel::paper_discrete(), RouteGoal::kVerdict);
    const obs::Snapshot snap = obs::snapshot();
    EXPECT_FALSE(verdict.valid);
    EXPECT_FALSE(verdict.routing.has_value());
    EXPECT_EQ(snap.counter(obs::Metric::kPrRemovals), 0u);
    EXPECT_EQ(snap.counter(obs::Metric::kRouteStoppedEarly), 1u);
    EXPECT_EQ(snap.hist_count(obs::Metric::kPrRemovalsPerCall), 1u);

    obs::reset();
    (void)router->route(kMesh, comms, PowerModel::paper_discrete());
    EXPECT_GT(obs::snapshot().counter(obs::Metric::kPrRemovals), 0u);
  }
  obs::set_enabled(false);
  obs::reset();
}

TEST(FailFast, ReferenceRoutersStopWhereIncrementalRoutersDo) {
  // The paper instances, scaled up until the policies fail part-way.
  obs::set_enabled(true);
  std::size_t stopped = 0;
  for (const paper::Instance& instance : paper::instances()) {
    for (const double scale : {1.0, 1.5, 2.0, 3.0}) {
      CommSet comms = instance.comms;
      for (Communication& comm : comms) comm.weight *= scale;
      const std::string label = instance.label + " x" + std::to_string(scale);
      const auto run = [&](const Router& router) {
        obs::reset();
        RouteResult result =
            router.route(instance.mesh, comms, instance.model, RouteGoal::kVerdict);
        return std::make_pair(std::move(result), obs::snapshot());
      };
      const auto [pr_inc, pr_inc_snap] = run(PathRemoverRouter());
      const auto [pr_ref, pr_ref_snap] = run(ReferencePathRemoverRouter());
      expect_same_result(pr_ref, pr_inc, "PR " + label);
      EXPECT_EQ(pr_inc_snap.counter(obs::Metric::kPrRemovals),
                pr_ref_snap.counter(obs::Metric::kPrRemovals))
          << "the PR routers stopped at different removals, " << label;
      const auto [ig_inc, ig_inc_snap] = run(ImprovedGreedyRouter());
      const auto [ig_ref, ig_ref_snap] = run(ReferenceImprovedGreedyRouter());
      expect_same_result(ig_ref, ig_inc, "IG " + label);
      EXPECT_EQ(ig_inc_snap.counter(obs::Metric::kIgCutBounds),
                ig_ref_snap.counter(obs::Metric::kIgCutBounds))
          << "the IG routers stopped at different hops, " << label;
      stopped += pr_inc.routing.has_value() ? 0 : 1;
      stopped += ig_inc.routing.has_value() ? 0 : 1;
    }
  }
  obs::set_enabled(false);
  obs::reset();
  EXPECT_GT(stopped, 0u) << "no instance exercised a stop";
}

TEST(FailFast, VerdictMatchesCompleteRoutingOnEveryRegistryScenario) {
  // The trace suites reference committed files relative to the repo root.
  ASSERT_EQ(setenv("PAMR_TRACE_DIR", PAMR_REPO_DIR, /*overwrite=*/1), 0);
  constexpr std::size_t kDraws = 3;
  const auto kinds = all_base_routers();
  std::size_t checked = 0;
  std::size_t stopped[kNumBaseRouters] = {};
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
        const std::string where =
            suite.name + " point " + std::to_string(point) + " draw " + std::to_string(draw);
        ++checked;
        // BEST from the complete runs: the first valid result of least power.
        RouteResult best;
        for (std::size_t h = 0; h < kinds.size(); ++h) {
          const auto router = make_router(kinds[h]);
          RouteResult full = router->route(mesh, comms, model);
          const RouteResult verdict = router->route(mesh, comms, model, RouteGoal::kVerdict);
          const std::string label = std::string(to_cstring(kinds[h])) + " " + where;
          if (expect_same_verdict(full, verdict, label)) ++stopped[h];
          if (full.valid && (!best.valid || full.power < best.power)) best = std::move(full);
        }
        expect_same_result(best,
                           BestRouter().route(mesh, comms, model, RouteGoal::kVerdict),
                           "BEST " + where);
      }
    }
  }
  // The battery must exercise every stopping policy, not pass vacuously.
  for (std::size_t h = 0; h < kinds.size(); ++h) {
    if (kinds[h] == RouterKind::kXYI) {
      EXPECT_EQ(stopped[h], 0u) << "XYI has no fail-fast";
    } else {
      EXPECT_GT(stopped[h], checked / 20)
          << to_cstring(kinds[h]) << " stopped " << stopped[h] << " of " << checked;
    }
  }
}

}  // namespace
}  // namespace pamr
