// TB — two-bend (paper §5.3).
//
// "We authorize at most two bends for the routing of a given communication.
//  … For each communication γ_i, we try all possible routings (there are at
//  most |usrc−usnk| + |vsrc−vsnk| different two-bend routings), and we keep
//  the best one (in terms of power consumption)."
//
// The ≤2-bend Manhattan paths from src to snk are exactly:
//   * H-V-H: horizontal to column m, vertical to the sink row, horizontal to
//     the sink — one per column m of the rectangle (m = v_snk is the XY
//     path, m = v_src the YX-with-trailing-horizontal = VH path);
//   * V-H-V with an interior turning row — (Δu − 1) more.
// Total Δv + 1 + Δu − 1 = Δu + Δv, matching the paper's count.
//
// The winner is committed whole, so under RouteGoal::kVerdict the first
// certain overload it causes ends the call.
#include <limits>

#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

namespace {

/// Walks a ≤2-bend staircase in path order, calling `visit(from, to)` per
/// hop. horizontal_first: H to column `turn`, V to snk.u, H to snk.v;
/// otherwise V to row `turn`, H to snk.v, V to snk.u.
template <class Visit>
void walk_staircase(Coord src, Coord snk, bool horizontal_first, std::int32_t turn,
                    Visit&& visit) {
  Coord at = src;
  auto advance_v = [&](std::int32_t target) {
    const std::int32_t s = sign_of(target - at.v);
    while (at.v != target) {
      const Coord from = at;
      at.v += s;
      visit(from, at);
    }
  };
  auto advance_u = [&](std::int32_t target) {
    const std::int32_t s = sign_of(target - at.u);
    while (at.u != target) {
      const Coord from = at;
      at.u += s;
      visit(from, at);
    }
  };
  if (horizontal_first) {
    advance_v(turn);
    advance_u(snk.u);
    advance_v(snk.v);
  } else {
    advance_u(turn);
    advance_v(snk.v);
    advance_u(snk.u);
  }
}

/// One ≤2-bend candidate: its family and turning row or column.
struct Staircase {
  bool horizontal_first = true;
  std::int32_t turn = 0;
};

/// Visits every distinct ≤2-bend Manhattan path, XY first (the
/// deterministic tie winner). A straight line has exactly one, the XY path
/// (H-V-H turning at the sink column).
template <class Visit>
void for_each_two_bend(Coord src, Coord snk, Visit&& visit) {
  if (src.u == snk.u || src.v == snk.v) {
    visit(Staircase{true, snk.v});
    return;
  }
  const std::int32_t sv = sign_of(snk.v - src.v);
  // H-V-H family: turning column from v_snk (XY) back to v_src (VH).
  for (std::int32_t m = snk.v; m != src.v - sv; m -= sv) visit(Staircase{true, m});
  // V-H-V family, interior turning rows only (endpoints duplicate XY / VH).
  const std::int32_t su = sign_of(snk.u - src.u);
  for (std::int32_t r = src.u + su; r != snk.u; r += su) visit(Staircase{false, r});
}

}  // namespace

RouteResult TwoBendRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                      const PowerModel& model, RouteGoal goal) const {
  const WallTimer timer;
  const LoadCost cost(model);
  const OverloadLimit limit = stop_limit(model, goal);
  LinkLoads loads(mesh);
  std::vector<Path> paths(comms.size());

  for (const std::size_t index : order_by_decreasing_weight(comms)) {
    const Communication& comm = comms[index];
    // Each candidate is costed along its staircase, link by link in path
    // order; only the winner is built.
    bool found = false;
    Staircase best;
    double best_delta = std::numeric_limits<double>::infinity();
    for_each_two_bend(comm.src, comm.snk, [&](const Staircase& candidate) {
      double delta = 0.0;
      walk_staircase(comm.src, comm.snk, candidate.horizontal_first, candidate.turn,
                     [&](Coord from, Coord to) {
                       const LinkId link = mesh.link_between(from, to);
                       delta += cost.delta(loads.load(link), loads.load(link) + comm.weight);
                     });
      if (delta < best_delta) {
        best_delta = delta;
        best = candidate;
        found = true;
      }
    });
    PAMR_ASSERT(found);
    Path& path = paths[index];
    path.src = comm.src;
    path.snk = comm.snk;
    path.links.reserve(static_cast<std::size_t>(manhattan_distance(comm.src, comm.snk)));
    bool overloaded = false;
    walk_staircase(comm.src, comm.snk, best.horizontal_first, best.turn,
                   [&](Coord from, Coord to) {
                     const LinkId link = mesh.link_between(from, to);
                     path.links.push_back(link);
                     loads.add(link, comm.weight);
                     overloaded = overloaded || limit.exceeded(loads.load(link));
                   });
    if (overloaded) return stopped(timer.elapsed_ms());
  }

  return finish(mesh, comms, model, make_single_path_routing(comms, std::move(paths)),
                timer.elapsed_ms());
}

}  // namespace pamr
