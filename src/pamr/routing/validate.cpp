#include "pamr/routing/validate.hpp"

#include "pamr/routing/link_loads.hpp"

namespace pamr {

std::string comm_tag(std::size_t index, const Communication& comm) {
  return "communication #" + std::to_string(index) + " " + to_string(comm);
}

ValidationResult validate_structure(const Mesh& mesh, const CommSet& comms,
                                    const Routing& routing, std::size_t max_paths) {
  return validate_structure_with(
      comms, routing, max_paths,
      [&mesh](const Path& path) { return is_manhattan(mesh, path); },
      "Manhattan shortest path");
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
      return ValidationResult{false, "link " + mesh.describe_link(link) +
                                         " overloaded: " + std::to_string(load) +
                                         " > capacity " +
                                         std::to_string(model.capacity())};
    }
  }
  return ValidationResult{true, {}};
}

void check_comm_set(const Mesh& mesh, const CommSet& comms) {
  check_comm_set_with(
      comms, [&mesh](Coord c) { return mesh.contains(c); }, "mesh");
}

}  // namespace pamr
