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
  const OverloadLimit limit = stop_limit(model, goal);
  // One path per communication, in communication order: the order of
  // loads_of_routing, so finish() gets the same sums bit for bit.
  LinkLoads loads(mesh);
  std::vector<Path> paths;
  paths.reserve(comms.size());
  for (const Communication& comm : comms) {
    const Path& path = paths.emplace_back(xy_path(mesh, comm.src, comm.snk));
    for (const LinkId link : path.links) {
      loads.add(link, comm.weight);
      if (limit.exceeded(loads.load(link))) return stopped(timer.elapsed_ms());
    }
  }
  return finish(mesh, comms, model, make_single_path_routing(comms, std::move(paths)), loads,
                timer.elapsed_ms());
}

}  // namespace pamr
