#include "pamr/routing/validate.hpp"

#include <cmath>

#include "pamr/routing/link_loads.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

namespace {

// Relative tolerance for comparing flow-weight sums against δ_i: splits are
// computed with a handful of additions, so anything past 1e-9 relative is a
// logic error, not round-off.
constexpr double kWeightTolerance = 1e-9;

ValidationResult fail(std::string message) {
  return ValidationResult{false, std::move(message)};
}

}  // namespace

ValidationResult validate_structure(const Mesh& mesh, const CommSet& comms,
                                    const Routing& routing, std::size_t max_paths) {
  if (routing.per_comm.size() != comms.size()) {
    return fail("routing covers " + std::to_string(routing.per_comm.size()) +
                " communications, expected " + std::to_string(comms.size()));
  }
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const Communication& comm = comms[i];
    const CommRouting& routed = routing.per_comm[i];
    // Built only on failure: this runs on every routed instance.
    const auto tag = [&] {
      return "communication #" + std::to_string(i) + " " + to_string(comm);
    };
    if (routed.flows.empty()) return fail(tag() + ": no flows");
    if (max_paths != 0 && routed.flows.size() > max_paths) {
      return fail(tag() + ": " + std::to_string(routed.flows.size()) +
                  " flows exceed the rule's s=" + std::to_string(max_paths));
    }
    double sum = 0.0;
    for (const RoutedFlow& flow : routed.flows) {
      if (flow.weight <= 0.0) return fail(tag() + ": non-positive flow weight");
      if (flow.path.src != comm.src || flow.path.snk != comm.snk) {
        return fail(tag() + ": flow endpoints differ from the communication's");
      }
      if (!is_manhattan(mesh, flow.path)) {
        return fail(tag() + ": flow path is not a Manhattan shortest path");
      }
      sum += flow.weight;
    }
    const double scale = std::max(1.0, std::abs(comm.weight));
    if (std::abs(sum - comm.weight) > kWeightTolerance * scale) {
      return fail(tag() + ": flow weights sum to " + std::to_string(sum) +
                  ", expected " + std::to_string(comm.weight));
    }
  }
  return ValidationResult{true, {}};
}

ValidationResult validate_routing(const Mesh& mesh, const CommSet& comms,
                                  const Routing& routing, const PowerModel& model,
                                  std::size_t max_paths) {
  ValidationResult structure = validate_structure(mesh, comms, routing, max_paths);
  if (!structure.ok) return structure;

  const LinkLoads loads = loads_of_routing(mesh, routing);
  for (LinkId link = 0; link < mesh.num_links(); ++link) {
    const double load = loads.load(link);
    if (!model.feasible(load)) {
      return fail("link " + mesh.describe_link(link) + " overloaded: " +
                  std::to_string(load) + " > capacity " +
                  std::to_string(model.capacity()));
    }
  }
  return ValidationResult{true, {}};
}

void check_comm_set(const Mesh& mesh, const CommSet& comms) {
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const Communication& comm = comms[i];
    // The message expressions below are only evaluated on failure, so the
    // happy path allocates nothing.
    const auto tag = [&] {
      return "communication #" + std::to_string(i) + " " + to_string(comm);
    };
    PAMR_CHECK(mesh.contains(comm.src), tag() + ": source outside the mesh");
    PAMR_CHECK(mesh.contains(comm.snk), tag() + ": sink outside the mesh");
    PAMR_CHECK(comm.src != comm.snk, tag() + ": self-communication (src == snk)");
    PAMR_CHECK(std::isfinite(comm.weight) && comm.weight > 0.0,
               tag() + ": weight must be finite and strictly positive");
  }
}

}  // namespace pamr
