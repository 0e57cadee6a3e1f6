// BEST (paper §6): "the best heuristic among all six ones on the given
// problem instance". Runs XY, SG, IG, TB, XYI and PR and keeps the valid
// result with the lowest power. The experiment harness computes BEST from
// per-heuristic results directly (to avoid routing everything twice); this
// router exists for the public API and the examples.
#include "pamr/routing/routers.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

RouteResult BestRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                   const PowerModel& model, RouteGoal) const {
  const WallTimer timer;
  RouteResult best;
  for (const RouterKind kind : all_base_routers()) {
    // BEST keeps valid results only, so its policies need only the verdict.
    RouteResult result = make_router(kind)->route(mesh, comms, model, RouteGoal::kVerdict);
    if (!result.valid) continue;
    if (!best.valid || result.power < best.power) best = std::move(result);
  }
  best.elapsed_ms = timer.elapsed_ms();
  return best;
}

}  // namespace pamr
