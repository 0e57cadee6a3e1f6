// XYI — XY improver (paper §5.4).
//
// "The idea is to start with an XY-routing and to try to decrease the load
//  of the most loaded links. … If the link is vertical, we use instead the
//  horizontal link going to the same core, from the core that is the
//  closest to the source core of the communication. If the link is
//  horizontal, we instead use the vertical link going from the same core,
//  and going to the core that is closest to the sink core."
//
// Interpretation (DESIGN.md §3): view a monotone path as a step string over
// {V, H}. Avoiding a vertical hot step by "using the horizontal link into
// the same core from the source side" is exactly swapping the hot V with
// the nearest preceding H in the string: the vertical run between them
// shifts one column toward the source and the horizontal crossing happens
// after the descent — through the prescribed link. Likewise a horizontal
// hot step swaps with the nearest following V (sink side). We evaluate both
// directions (preferred one first), across every communication crossing the
// most-loaded link, apply the best strictly-improving move, re-sort the
// link list and restart; a link with no improving move is skipped. Total
// (penalized) power strictly decreases with every move, so the search
// terminates; each communication admits at most O(p·q) candidate moves per
// round, matching the paper's bound.
//
// The candidate enumeration and move application are shared with the
// incremental router via xy_moves.hpp. This file holds
// ReferenceXYImproverRouter (reference_routers.hpp) — the seed's loop, kept
// as the ground truth for the differential suite; XYImproverRouter lives in
// xy_improver_incremental.cpp.
#include <algorithm>
#include <numeric>

#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/reference_routers.hpp"
#include "pamr/routing/xy_moves.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

// XYI never stops early: its moves take load off links, so a committed
// overload can still be repaired.
RouteResult ReferenceXYImproverRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                                  const PowerModel& model,
                                                  RouteGoal) const {
  const WallTimer timer;
  const LoadCost cost(model);

  std::vector<std::vector<Coord>> paths;
  paths.reserve(comms.size());
  LinkLoads loads(mesh);
  for (const Communication& comm : comms) {
    const Path path = xy_path(mesh, comm.src, comm.snk);
    paths.push_back(cores_of_path(mesh, path));
    loads.add_path(path, comm.weight);
  }

  std::vector<LinkId> order(static_cast<std::size_t>(mesh.num_links()));
  std::iota(order.begin(), order.end(), LinkId{0});
  auto resort = [&] {
    std::stable_sort(order.begin(), order.end(), [&loads](LinkId a, LinkId b) {
      return loads.load(a) > loads.load(b);
    });
  };
  resort();

  const std::size_t cap = xyi::move_cap(mesh, comms.size());
  std::size_t moves = 0;
  std::size_t cursor = 0;
  while (cursor < order.size() && moves < cap) {
    const LinkId hot = order[cursor];
    if (loads.load(hot) <= 0.0) break;  // remaining links are idle
    const LinkInfo& hot_info = mesh.link(hot);

    xyi::Move best;
    for (std::size_t ci = 0; ci < comms.size(); ++ci) {
      xyi::consider_crossing(mesh, hot_info, paths[ci], ci, comms[ci].weight, loads,
                             cost, best);
    }

    if (best.delta < -xyi::kImproveEps) {
      auto& cores = paths[best.comm];
      const double weight = comms[best.comm].weight;
      for (std::size_t k = 0; k + 1 < cores.size(); ++k) {
        loads.add(mesh.link_between(cores[k], cores[k + 1]), -weight);
      }
      cores = std::move(best.new_cores);
      for (std::size_t k = 0; k + 1 < cores.size(); ++k) {
        loads.add(mesh.link_between(cores[k], cores[k + 1]), weight);
      }
      ++moves;
      obs::bump(obs::Metric::kXyiMoves);
      if (trace_ != nullptr) {
        trace_->penalized_totals.push_back(cost.total(loads.values()));
      }
      resort();
      cursor = 0;
    } else {
      ++cursor;
    }
  }

  obs::sample(obs::Metric::kXyiMovesPerCall, moves);
  std::vector<Path> final_paths;
  final_paths.reserve(comms.size());
  for (const auto& cores : paths) final_paths.push_back(path_from_cores(mesh, cores));
  RouteResult result = finish(mesh, comms, model,
                              make_single_path_routing(comms, std::move(final_paths)),
                              timer.elapsed_ms());
  xyi::finish_search_stats(result, mesh, comms.size(), moves, cap);
  return result;
}

}  // namespace pamr
