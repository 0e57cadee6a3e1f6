// SA — simulated annealing over single-path assignments (see
// extensions.hpp). The neighbourhood draws a uniformly random Manhattan
// path (sampled step by step with probabilities proportional to the number
// of completions — giving the exact uniform distribution over the
// C(du+dv, du) staircases), so the chain is irreducible over the full
// search space; the penalized LoadCost objective drives it toward feasible
// low-power routings.
#include <cmath>

#include "pamr/mesh/rectangle.hpp"
#include "pamr/opt/path_enum.hpp"
#include "pamr/routing/extensions.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/util/rng.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

namespace {

/// Uniform random monotone path: at each cell choose the vertical step with
/// probability (#paths via vertical)/(#paths total).
Path uniform_random_path(const CommRect& rect, Rng& rng) {
  std::vector<Coord> cores{rect.src()};
  Coord at = rect.src();
  while (at != rect.snk()) {
    const auto steps = rect.next_steps(at);
    std::size_t pick = 0;
    if (steps.size() == 2) {
      const Coord snk = rect.snk();
      const auto remaining = [&](Coord next) {
        const std::int32_t du = next.u > snk.u ? next.u - snk.u : snk.u - next.u;
        const std::int32_t dv = next.v > snk.v ? next.v - snk.v : snk.v - next.v;
        return count_manhattan_paths(du, dv);
      };
      const double via_vertical = static_cast<double>(remaining(steps[0].to));
      const double via_horizontal = static_cast<double>(remaining(steps[1].to));
      pick = rng.uniform() * (via_vertical + via_horizontal) < via_vertical ? 0 : 1;
    }
    cores.push_back(steps[pick].to);
    at = steps[pick].to;
  }
  return path_from_cores(rect.mesh(), cores);
}

}  // namespace

RouteResult AnnealingRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                        const PowerModel& model, RouteGoal) const {
  const WallTimer timer;
  if (comms.empty()) {
    return finish(mesh, comms, model, Routing{}, timer.elapsed_ms());
  }
  const LoadCost cost(model);
  Rng rng(options_.seed);

  std::vector<CommRect> rects;
  rects.reserve(comms.size());
  LinkLoads loads(mesh);
  std::vector<Path> paths(comms.size());
  std::vector<Path> best_paths(comms.size());
  for (std::size_t i = 0; i < comms.size(); ++i) {
    rects.emplace_back(mesh, comms[i].src, comms[i].snk);
    paths[i] = xy_path(mesh, comms[i].src, comms[i].snk);
    loads.add_path(paths[i], comms[i].weight);
  }
  best_paths = paths;

  double objective = cost.total(loads.values());
  double best_objective = objective;
  double temperature =
      std::max(1e-9, options_.initial_temperature_fraction * objective);

  for (std::int32_t it = 0; it < options_.iterations; ++it) {
    const std::size_t index = static_cast<std::size_t>(rng.below(comms.size()));
    if (rects[index].length() < 2) continue;  // unique path, no move
    const double weight = comms[index].weight;

    Path candidate = uniform_random_path(rects[index], rng);
    // Delta: remove old path, add candidate (shared links cancel exactly —
    // evaluate by applying, which is cheap at mesh scale and exact).
    double delta = 0.0;
    for (const LinkId link : paths[index].links) {
      delta += cost.delta(loads.load(link), loads.load(link) - weight);
    }
    loads.add_path(paths[index], -weight);
    for (const LinkId link : candidate.links) {
      delta += cost.delta(loads.load(link), loads.load(link) + weight);
    }

    const bool accept =
        delta <= 0.0 || rng.uniform() < std::exp(-delta / temperature);
    if (accept) {
      loads.add_path(candidate, weight);
      paths[index] = std::move(candidate);
      objective += delta;
      if (objective < best_objective) {
        best_objective = objective;
        best_paths = paths;
      }
    } else {
      loads.add_path(paths[index], weight);  // roll back
    }
    temperature *= options_.cooling;
  }

  return finish(mesh, comms, model,
                make_single_path_routing(comms, std::move(best_paths)),
                timer.elapsed_ms());
}

}  // namespace pamr
