// RR — negotiated rip-up-and-reroute (see extensions.hpp).
//
// Convergence: every accepted re-route strictly lowers the penalized total
// cost (the DP returns the optimal path for the ripped-out communication,
// and we only swap when it beats the incumbent path strictly), so passes
// monotonically improve and the loop exits at the first quiescent pass.
#include "pamr/mesh/rectangle.hpp"
#include "pamr/opt/path_enum.hpp"
#include "pamr/routing/extensions.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

RouteResult RipUpRerouteRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                           const PowerModel& model, RouteGoal) const {
  const WallTimer timer;
  const LoadCost cost(model);
  LinkLoads loads(mesh);
  std::vector<Path> paths(comms.size());
  std::vector<CommRect> rects;
  rects.reserve(comms.size());
  for (const Communication& comm : comms) {
    rects.emplace_back(mesh, comm.src, comm.snk);
  }

  // Initial solution: sequential DP-greedy, heaviest first.
  const std::vector<std::size_t> order = order_by_decreasing_weight(comms);
  for (const std::size_t index : order) {
    const double weight = comms[index].weight;
    paths[index] = min_cost_manhattan_path(rects[index], [&](LinkId link) {
      return cost.delta(loads.load(link), loads.load(link) + weight);
    });
    loads.add_path(paths[index], weight);
  }

  // Negotiation passes.
  for (std::int32_t pass = 0; pass < options_.max_passes; ++pass) {
    bool changed = false;
    for (const std::size_t index : order) {
      const double weight = comms[index].weight;
      loads.add_path(paths[index], -weight);
      double incumbent = 0.0;
      for (const LinkId link : paths[index].links) {
        incumbent += cost.delta(loads.load(link), loads.load(link) + weight);
      }
      Path candidate = min_cost_manhattan_path(rects[index], [&](LinkId link) {
        return cost.delta(loads.load(link), loads.load(link) + weight);
      });
      double candidate_cost = 0.0;
      for (const LinkId link : candidate.links) {
        candidate_cost += cost.delta(loads.load(link), loads.load(link) + weight);
      }
      if (candidate_cost < incumbent - 1e-12 && !(candidate == paths[index])) {
        paths[index] = std::move(candidate);
        changed = true;
      }
      loads.add_path(paths[index], weight);
    }
    if (!changed) break;
  }

  return finish(mesh, comms, model, make_single_path_routing(comms, std::move(paths)),
                timer.elapsed_ms());
}

}  // namespace pamr
