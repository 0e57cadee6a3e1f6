#include "pamr/topo/topo_router.hpp"

#include <limits>
#include <type_traits>
#include <utility>

#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/topo/validate.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {
namespace topo {

namespace {

/// Deterministic truncation bound for the ≤2-change enumeration. Generous
/// for the path families it is meant to cover (a torus axis pair yields at
/// most 4 direction-sign combinations × path count per combination); the
/// DFS order makes any truncation reproducible.
constexpr std::size_t kMaxTwoChangePaths = 256;

void enumerate_two_change(const Topology& topology, Coord at, Coord snk,
                          std::int32_t last_dir, int changes, Path& prefix,
                          std::vector<Path>& out) {
  if (out.size() >= kMaxTwoChangePaths) return;
  if (at == snk) {
    out.push_back(prefix);
    return;
  }
  for (const TopoStep& step : topology.next_steps(at, snk)) {
    const std::int32_t dir = topology.link(step.link).dir;
    const int next_changes = changes + (last_dir >= 0 && dir != last_dir ? 1 : 0);
    if (next_changes > 2) continue;
    prefix.links.push_back(step.link);
    enumerate_two_change(topology, step.to, snk, dir, next_changes, prefix, out);
    prefix.links.pop_back();
    if (out.size() >= kMaxTwoChangePaths) return;
  }
}

/// Penalized cost of adding `weight` along `path` on top of `loads`. Links
/// of a shortest path are distinct, so per-link deltas compose exactly.
double path_cost(const LoadCost& cost, const LinkLoads& loads, const Path& path,
                 double weight) {
  double sum = 0.0;
  for (const LinkId link : path.links) {
    const double before = loads.load(link);
    sum += cost.delta(before, before + weight);
  }
  return sum;
}

bool path_uses(const Path& path, LinkId link) {
  for (const LinkId id : path.links) {
    if (id == link) return true;
  }
  return false;
}

/// The strict-< argmin every analogue picks with: walks `items` in order
/// and keeps each one whose key is below the best so far, starting from
/// `best` at `best_key`. Ties keep the earlier item (or `best`), and an item
/// keyed +infinity never wins.
template <class Item, class Key, class Value>
const Item* argmin(const std::vector<Item>& items, const Key& key,
                   std::type_identity_t<const Item*> best, Value best_key) {
  for (const Item& item : items) {
    const Value candidate = key(item);
    if (candidate < best_key) {
      best = &item;
      best_key = candidate;
    }
  }
  return best;
}

/// XY analogue: every communication takes its canonical path.
Routing route_xy(const Topology& topology, const CommSet& comms) {
  Routing routing;
  routing.per_comm.resize(comms.size());
  for (std::size_t i = 0; i < comms.size(); ++i) {
    routing.per_comm[i].flows.push_back(RoutedFlow{
        topology.canonical_path(comms[i].src, comms[i].snk), comms[i].weight});
  }
  return routing;
}

/// SG and IG analogues: communications by decreasing weight, each path
/// built hop by hop onto the next step with the least
/// `key(loads, link, weight)`; ties keep the pinned next_steps order.
template <class Key>
Routing route_greedy(const Topology& topology, const CommSet& comms, const Key& key) {
  Routing routing;
  routing.per_comm.resize(comms.size());
  LinkLoads loads(topology.num_links());
  for (const std::size_t idx : order_by_decreasing_weight(comms)) {
    const Communication& comm = comms[idx];
    const auto step_key = [&](const TopoStep& step) {
      return key(loads, step.link, comm.weight);
    };
    Path path;
    path.src = comm.src;
    path.snk = comm.snk;
    Coord at = comm.src;
    while (at != comm.snk) {
      const std::vector<TopoStep> steps = topology.next_steps(at, comm.snk);
      PAMR_ASSERT(!steps.empty());
      const TopoStep* best =
          argmin(steps, step_key, &steps.front(), step_key(steps.front()));
      path.links.push_back(best->link);
      at = best->to;
    }
    loads.add_path(path, comm.weight);
    routing.per_comm[idx].flows.push_back(RoutedFlow{std::move(path), comm.weight});
  }
  return routing;
}

/// SG analogue: each hop onto the least-loaded next step.
Routing route_sg(const Topology& topology, const CommSet& comms) {
  return route_greedy(topology, comms,
                      [](const LinkLoads& loads, LinkId link, double /*weight*/) {
                        return loads.load(link);
                      });
}

/// IG analogue: each hop minimizes the penalized LoadCost delta of carrying
/// the communication; ties go to the least-loaded link, then to the pinned
/// next_steps order.
Routing route_ig(const Topology& topology, const CommSet& comms,
                 const PowerModel& model) {
  const LoadCost cost(model);
  return route_greedy(topology, comms,
                      [&cost](const LinkLoads& loads, LinkId link, double weight) {
                        const double before = loads.load(link);
                        return std::pair<double, double>(
                            cost.delta(before, before + weight), before);
                      });
}

/// TB analogue: communications by decreasing weight; the cheapest (LoadCost
/// delta) path of the ≤2-change enumeration, ties to the earliest
/// enumerated (the canonical path first).
Routing route_tb(const Topology& topology, const CommSet& comms,
                 const PowerModel& model) {
  const LoadCost cost(model);
  Routing routing;
  routing.per_comm.resize(comms.size());
  LinkLoads loads(topology.num_links());
  for (const std::size_t idx : order_by_decreasing_weight(comms)) {
    const Communication& comm = comms[idx];
    const std::vector<Path> candidates =
        two_change_paths(topology, comm.src, comm.snk);
    PAMR_ASSERT(!candidates.empty());
    const auto cost_of = [&](const Path& path) {
      return path_cost(cost, loads, path, comm.weight);
    };
    const Path* best =
        argmin(candidates, cost_of, &candidates.front(), cost_of(candidates.front()));
    loads.add_path(*best, comm.weight);
    routing.per_comm[idx].flows.push_back(RoutedFlow{*best, comm.weight});
  }
  return routing;
}

/// Move cap shared by the local-search analogues, mirroring the mesh XYI's
/// safety-net sizing: generous against any observed descent, and the stats
/// report `converged = false` when it truncates.
std::size_t move_cap(const CommSet& comms) { return 8 * comms.size() + 64; }

/// XYI analogue: start from the canonical routing, then sweep the
/// communications in index order re-picking each one's cheapest ≤2-change
/// path, applying strict improvements only, until a full sweep changes
/// nothing (or the move cap trips).
Routing route_xyi(const Topology& topology, const CommSet& comms,
                  const PowerModel& model, LocalSearchStats& stats) {
  const LoadCost cost(model);
  Routing routing = route_xy(topology, comms);
  LinkLoads loads(topology.num_links());
  loads.add_routing(routing);
  const std::size_t cap = move_cap(comms);
  bool improved = true;
  while (improved && stats.moves < cap) {
    improved = false;
    for (std::size_t i = 0; i < comms.size() && stats.moves < cap; ++i) {
      const Communication& comm = comms[i];
      RoutedFlow& flow = routing.per_comm[i].flows.front();
      loads.add_path(flow.path, -comm.weight);
      const auto cost_of = [&](const Path& path) {
        return path_cost(cost, loads, path, comm.weight);
      };
      const std::vector<Path> candidates =
          two_change_paths(topology, comm.src, comm.snk);
      const Path* best = argmin(candidates, cost_of, nullptr, cost_of(flow.path));
      if (best != nullptr) {
        // Paranoid: an applied move must stay inside the shortest-path
        // family — two_change_paths enumerates only distance-reducing
        // chains, and a longer path would silently change the load
        // accounting every later move reads.
        PAMR_INVARIANT("topo-router",
                       best->length() == topology.distance(comm.src, comm.snk),
                       "XYI move left the shortest-path family");
        flow.path = *best;
        ++stats.moves;
        improved = true;
      }
      loads.add_path(flow.path, comm.weight);
    }
  }
  stats.converged = !improved;
  return routing;
}

/// PR analogue: start from the canonical routing; repeatedly take the
/// most-loaded unretired link (ties to the lowest id) and reroute its
/// heaviest crossing communication onto a strictly cheaper ≤2-change path
/// avoiding that link; when no crossing communication improves, retire the
/// link.
Routing route_pr(const Topology& topology, const CommSet& comms,
                 const PowerModel& model, LocalSearchStats& stats) {
  const LoadCost cost(model);
  Routing routing = route_xy(topology, comms);
  LinkLoads loads(topology.num_links());
  loads.add_routing(routing);
  std::vector<bool> retired(static_cast<std::size_t>(topology.num_links()), false);
  const std::vector<std::size_t> order = order_by_decreasing_weight(comms);
  const std::size_t cap = move_cap(comms);
  while (stats.moves < cap) {
    LinkId hot = kInvalidLink;
    for (LinkId link = 0; link < topology.num_links(); ++link) {
      if (retired[static_cast<std::size_t>(link)] || loads.load(link) <= 0.0) continue;
      if (hot == kInvalidLink || loads.load(link) > loads.load(hot)) hot = link;
    }
    if (hot == kInvalidLink) break;
    bool moved = false;
    for (const std::size_t idx : order) {
      const Communication& comm = comms[idx];
      RoutedFlow& flow = routing.per_comm[idx].flows.front();
      if (!path_uses(flow.path, hot)) continue;
      loads.add_path(flow.path, -comm.weight);
      const auto cost_of = [&](const Path& path) {
        return path_cost(cost, loads, path, comm.weight);
      };
      // A candidate through the hot link is keyed +infinity, so it never wins.
      const auto cost_off_hot = [&](const Path& path) {
        return path_uses(path, hot) ? std::numeric_limits<double>::infinity()
                                    : cost_of(path);
      };
      const std::vector<Path> candidates =
          two_change_paths(topology, comm.src, comm.snk);
      const Path* best = argmin(candidates, cost_off_hot, nullptr, cost_of(flow.path));
      if (best != nullptr) {
        // Paranoid: a PR move exists to unload the hot link — a replacement
        // path that still crosses it (or leaves the shortest family) means
        // the candidate filter broke and the retirement argument with it.
        PAMR_INVARIANT("topo-router", !path_uses(*best, hot),
                       "PR move still crosses the hot link it was evicted from");
        PAMR_INVARIANT("topo-router",
                       best->length() == topology.distance(comm.src, comm.snk),
                       "PR move left the shortest-path family");
        flow.path = *best;
        ++stats.moves;
        moved = true;
      }
      loads.add_path(flow.path, comm.weight);
      if (moved) break;
    }
    if (!moved) retired[static_cast<std::size_t>(hot)] = true;
  }
  stats.converged = stats.moves < cap;
  return routing;
}

}  // namespace

std::vector<Path> two_change_paths(const Topology& topology, Coord src, Coord snk) {
  std::vector<Path> out;
  Path prefix;
  prefix.src = src;
  prefix.snk = snk;
  enumerate_two_change(topology, src, snk, -1, 0, prefix, out);
  return out;
}

RouteResult route_on(const Topology& topology, RouterKind kind,
                     const CommSet& comms, const PowerModel& model) {
  check_comm_set(topology, comms);
  if (kind == RouterKind::kBest) {
    obs::bump(obs::Metric::kRouteCalls);
    const obs::PhaseScope phase(obs::Metric::kPhaseRouteBest);
    const WallTimer timer;
    RouteResult best;
    for (const RouterKind base : all_base_routers()) {
      RouteResult result = route_on(topology, base, comms, model);
      if (!result.valid) continue;
      if (!best.valid || result.power < best.power) best = std::move(result);
    }
    best.elapsed_ms = timer.elapsed_ms();
    return best;
  }
  obs::bump(obs::Metric::kRouteCalls);
  const obs::PhaseScope phase(obs::Metric::kPhaseRouteOther);
  const WallTimer timer;
  Routing routing;
  LocalSearchStats stats;
  switch (kind) {
    case RouterKind::kXY: routing = route_xy(topology, comms); break;
    case RouterKind::kSG: routing = route_sg(topology, comms); break;
    case RouterKind::kIG: routing = route_ig(topology, comms, model); break;
    case RouterKind::kTB: routing = route_tb(topology, comms, model); break;
    case RouterKind::kXYI: routing = route_xyi(topology, comms, model, stats); break;
    case RouterKind::kPR: routing = route_pr(topology, comms, model, stats); break;
    case RouterKind::kBest: break;  // handled above
  }
  const double elapsed_ms = timer.elapsed_ms();
  // Structure must always hold; feasibility and power come from the model
  // on the finished loads.
  const ValidationResult structure = validate_structure(topology, comms, routing, 1);
  PAMR_ASSERT_MSG(structure.ok, structure.error.c_str());
  LinkLoads loads(topology.num_links());
  loads.add_routing(routing);
  RouteResult result = evaluated_result(model, std::move(routing), loads, elapsed_ms);
  result.local_search = stats;
  return result;
}

}  // namespace topo
}  // namespace pamr
