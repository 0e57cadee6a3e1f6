#include "pamr/opt/exact_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "pamr/mesh/rectangle.hpp"
#include "pamr/opt/path_enum.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

namespace {

constexpr std::uint64_t kMaxPathsPerComm = 20000;  ///< enumeration guard
constexpr std::uint64_t kMaxNodes = 50'000'000;    ///< search-size guard

struct SearchState {
  const Mesh* mesh;
  const PowerModel* model;
  const CommSet* comms;
  std::vector<std::size_t> order;              ///< heaviest-first comm indices
  std::vector<std::vector<Path>> paths;        ///< per order position
  std::vector<double> tail_bound;              ///< LB on comms from position k on
  LinkLoads loads;
  std::vector<const Path*> chosen;
  double best_power = std::numeric_limits<double>::infinity();
  std::vector<const Path*> best_choice;
  std::uint64_t nodes = 0;
  bool capped = false;

  explicit SearchState(const Mesh& m) : loads(m) {}

  /// Power of the committed loads; +inf when infeasible (prunes the branch:
  /// loads only grow deeper in the tree).
  [[nodiscard]] double committed_power() const {
    const auto power = model->total_power(loads.values());
    return power.has_value() ? *power : std::numeric_limits<double>::infinity();
  }

  void dfs(std::size_t position) {
    if (capped) return;
    if (++nodes > kMaxNodes) {
      capped = true;
      return;
    }
    const double committed = committed_power();
    if (committed + tail_bound[position] >= best_power) return;
    if (position == order.size()) {
      best_power = committed;
      best_choice = chosen;
      return;
    }
    const double weight = (*comms)[order[position]].weight;
    for (const Path& path : paths[position]) {
      loads.add_path(path, weight);
      chosen[position] = &path;
      dfs(position + 1);
      loads.add_path(path, -weight);
    }
    chosen[position] = nullptr;
  }
};

}  // namespace

ExactResult solve_exact_1mp(const Mesh& mesh, const CommSet& comms,
                            const PowerModel& model) {
  SearchState state(mesh);
  state.mesh = &mesh;
  state.model = &model;
  state.comms = &comms;
  state.order = order_by_decreasing_weight(comms);

  const PowerParams& params = model.params();
  state.paths.reserve(comms.size());
  for (const std::size_t index : state.order) {
    const CommRect rect(mesh, comms[index].src, comms[index].snk);
    PAMR_CHECK(count_manhattan_paths(rect.du(), rect.dv()) <= kMaxPathsPerComm,
               "instance too large for exact enumeration: " + to_string(comms[index]));
    state.paths.push_back(enumerate_manhattan_paths(rect, kMaxPathsPerComm));
  }

  // tail_bound[k] = Σ_{j ≥ k} ℓ_j · Pdyn_cont(δ_j)  (see header).
  state.tail_bound.assign(comms.size() + 1, 0.0);
  for (std::size_t k = comms.size(); k-- > 0;) {
    const Communication& comm = comms[state.order[k]];
    const double length = static_cast<double>(manhattan_distance(comm.src, comm.snk));
    const double isolated =
        params.p0 * std::pow(comm.weight * params.load_unit, params.alpha);
    state.tail_bound[k] = state.tail_bound[k + 1] + length * isolated;
  }

  // Warm start with BEST: any valid heuristic power is an upper bound. The
  // margin covers float drift from the DFS's add/remove load accounting; if
  // the search never beats it, the warm solution is returned as optimal
  // (within that margin).
  RouteResult warm = BestRouter().route(mesh, comms, model);
  if (warm.valid) {
    state.best_power = warm.power * (1.0 + 1e-9) + 1e-9;
  }

  state.chosen.assign(comms.size(), nullptr);
  state.dfs(0);

  ExactResult result;
  result.nodes = state.nodes;
  result.complete = !state.capped;
  if (!state.best_choice.empty() &&
      std::all_of(state.best_choice.begin(), state.best_choice.end(),
                  [](const Path* path) { return path != nullptr; })) {
    std::vector<Path> final_paths(comms.size());
    for (std::size_t k = 0; k < comms.size(); ++k) {
      final_paths[state.order[k]] = *state.best_choice[k];
    }
    result.routing = make_single_path_routing(comms, std::move(final_paths));
    const LinkLoads final_loads = loads_of_routing(mesh, *result.routing);
    const auto power = model.total_power(final_loads.values());
    PAMR_ASSERT(power.has_value());
    result.power = *power;
  } else if (warm.valid) {
    // Either node-capped, or the complete search found nothing strictly
    // better than the heuristic incumbent — in which case the incumbent is
    // the optimum (within the pruning margin).
    result.routing = std::move(warm.routing);
    result.power = warm.power;
  }
  return result;
}

}  // namespace pamr
