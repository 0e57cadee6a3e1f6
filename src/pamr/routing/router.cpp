#include "pamr/routing/router.hpp"

#include <algorithm>
#include <utility>

#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

const char* to_cstring(RouterKind kind) noexcept {
  switch (kind) {
    case RouterKind::kXY: return "XY";
    case RouterKind::kSG: return "SG";
    case RouterKind::kIG: return "IG";
    case RouterKind::kTB: return "TB";
    case RouterKind::kXYI: return "XYI";
    case RouterKind::kPR: return "PR";
    case RouterKind::kBest: return "BEST";
  }
  return "?";
}

std::vector<RouterKind> all_base_routers() {
  return {RouterKind::kXY, RouterKind::kSG,  RouterKind::kIG,
          RouterKind::kTB, RouterKind::kXYI, RouterKind::kPR};
}

RouteResult Router::route(const Mesh& mesh, const CommSet& comms,
                          const PowerModel& model, RouteGoal goal) const {
  check_comm_set(mesh, comms);
  obs::bump(obs::Metric::kRouteCalls);
  const obs::PhaseScope phase(obs::route_phase(name()));
  return route_impl(mesh, comms, model, goal);
}

namespace {

// All §5 heuristics are single-path; multi-path callers go through the
// opt/ layer which validates with its own s. Structure must always hold —
// a structurally broken routing is a bug, not a "failure".
void assert_structure(const Mesh& mesh, const CommSet& comms, const Routing& routing) {
  const ValidationResult structure = validate_structure(mesh, comms, routing, 1);
  PAMR_ASSERT_MSG(structure.ok, structure.error.c_str());
}

}  // namespace

RouteResult evaluated_result(const PowerModel& model, Routing routing,
                             const LinkLoads& loads, double elapsed_ms) {
  RouteResult result;
  result.elapsed_ms = elapsed_ms;
  if (const auto breakdown = model.breakdown(loads.values()); breakdown.has_value()) {
    result.valid = true;
    result.power = breakdown->total;
    result.breakdown = *breakdown;
  }
  result.routing = std::move(routing);
  return result;
}

RouteResult Router::finish(const Mesh& mesh, const CommSet& comms,
                           const PowerModel& model, Routing routing,
                           double elapsed_ms) {
  assert_structure(mesh, comms, routing);
  const LinkLoads loads = loads_of_routing(mesh, routing);
  return evaluated_result(model, std::move(routing), loads, elapsed_ms);
}

RouteResult Router::finish(const Mesh& mesh, const CommSet& comms,
                           const PowerModel& model, Routing routing,
                           const LinkLoads& loads, double elapsed_ms) {
  assert_structure(mesh, comms, routing);
  PAMR_INVARIANT("finish-loads",
                 std::ranges::equal(loads.values(), loads_of_routing(mesh, routing).values()),
                 "handed link loads differ from the routing's own sums");
  return evaluated_result(model, std::move(routing), loads, elapsed_ms);
}

OverloadLimit Router::stop_limit(const PowerModel& model, RouteGoal goal) noexcept {
  return goal == RouteGoal::kVerdict ? OverloadLimit(model) : OverloadLimit::none();
}

RouteResult Router::stopped(double elapsed_ms) {
  obs::bump(obs::Metric::kRouteStoppedEarly);
  RouteResult result;
  result.elapsed_ms = elapsed_ms;
  return result;
}

std::unique_ptr<Router> make_router(RouterKind kind) {
  switch (kind) {
    case RouterKind::kXY: return std::make_unique<XYRouter>();
    case RouterKind::kSG: return std::make_unique<SimpleGreedyRouter>();
    case RouterKind::kIG: return std::make_unique<ImprovedGreedyRouter>();
    case RouterKind::kTB: return std::make_unique<TwoBendRouter>();
    case RouterKind::kXYI: return std::make_unique<XYImproverRouter>();
    case RouterKind::kPR: return std::make_unique<PathRemoverRouter>();
    case RouterKind::kBest: return std::make_unique<BestRouter>();
  }
  PAMR_CHECK(false, "unknown router kind");
  return nullptr;  // unreachable
}

}  // namespace pamr
