// XY routing (paper §1, §3.5): every communication goes horizontally first,
// then vertically. Deterministic, oblivious, and the baseline every other
// policy is measured against.
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

RouteResult XYRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                 const PowerModel& model, RouteGoal goal) const {
  const WallTimer timer;
  // Under kVerdict each path is committed as it is drawn.
  CommitLedger ledger(mesh, model, goal == RouteGoal::kVerdict);
  std::vector<Path> paths;
  paths.reserve(comms.size());
  for (const Communication& comm : comms) {
    const Path& path = paths.emplace_back(xy_path(mesh, comm.src, comm.snk));
    if (!ledger.active()) continue;
    for (const LinkId link : path.links) {
      if (ledger.overloads(link, comm.weight)) return stopped(timer.elapsed_ms());
    }
  }
  return finish(mesh, comms, model, make_single_path_routing(comms, std::move(paths)),
                timer.elapsed_ms());
}

}  // namespace pamr
