#include "pamr/routing/link_loads.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "pamr/util/assert.hpp"

namespace pamr {

LinkLoads::LinkLoads(const Mesh& mesh)
    : loads_(static_cast<std::size_t>(mesh.num_links()), 0.0) {}

LinkLoads::LinkLoads(std::int32_t num_links)
    : loads_(static_cast<std::size_t>(num_links), 0.0) {
  PAMR_ASSERT(num_links >= 0);
}

void LinkLoads::add_path(const Path& path, double weight) {
  for (const LinkId link : path.links) add(link, weight);
}

void LinkLoads::add_routing(const Routing& routing) {
  for (const auto& comm : routing.per_comm) {
    for (const auto& flow : comm.flows) add_path(flow.path, flow.weight);
  }
}

double LinkLoads::max_load() const noexcept {
  double max_value = 0.0;
  for (const double load : loads_) max_value = std::max(max_value, load);
  return max_value;
}

void LinkLoads::clear() noexcept { std::fill(loads_.begin(), loads_.end(), 0.0); }

LinkLoads loads_of_routing(const Mesh& mesh, const Routing& routing) {
  LinkLoads loads(mesh);
  loads.add_routing(routing);
  return loads;
}

LoadCost::LoadCost(const PowerModel& model) : model_(&model) {
  if (!model.discrete()) return;
  const auto& frequencies = model.table()->frequencies();
  level_edges_.reserve(frequencies.size());
  level_costs_.reserve(frequencies.size());
  for (const double frequency : frequencies) {
    level_edges_.push_back(frequency);
    // Exactly the unmemoized result: any load quantizing to this level gets
    // link_power(frequency), computed here once through the same code path.
    level_costs_.push_back(*model.link_power(frequency));
  }
}

double LoadCost::operator()(double load) const noexcept {
  if (load <= 0.0) return 0.0;
  if (!level_edges_.empty()) {
    // Discrete fast path. A load above the top level always lands in the
    // penalty branch below, exactly as the unmemoized code: quantize()
    // returns nullopt there even inside the feasibility tolerance.
    if (load <= level_edges_.back()) {
      std::size_t level = 0;
      while (level_edges_[level] < load) ++level;
      return level_costs_[level];
    }
  } else if (const auto power = model_->link_power(load); power.has_value()) {
    return *power;
  }
  // Infeasible: continuous extension of the dynamic curve + linear penalty.
  const PowerParams& params = model_->params();
  const double capacity = model_->capacity();
  const double dynamic = params.p0 * std::pow(load * params.load_unit, params.alpha);
  // The penalty slope dwarfs any realistic power value (§6 powers are a few
  // watts = a few thousand mW) so one Mb/s of overload always costs more
  // than any feasible rearrangement saves.
  constexpr double kOverloadPenaltyPerMbps = 1e4;
  return params.p_leak + dynamic + kOverloadPenaltyPerMbps * (load - capacity);
}

double LoadCost::total(std::span<const double> loads) const noexcept {
  double sum = 0.0;
  for (const double load : loads) sum += (*this)(load);
  return sum;
}

}  // namespace pamr
