#include "pamr/topo/validate.hpp"

#include <algorithm>
#include <cmath>

#include "pamr/routing/deadlock.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {
namespace topo {

namespace {

// Same tolerance discipline as routing/validate.cpp: flow splits are a
// handful of additions, so anything past 1e-9 relative is a logic error.
constexpr double kWeightTolerance = 1e-9;

ValidationResult fail(std::string message) {
  return ValidationResult{false, std::move(message)};
}

/// True iff the path is link-connected src→snk and every hop reduces the
/// distance to the sink by exactly one (hence a shortest path).
bool is_shortest_path(const Topology& topology, const Path& path) {
  Coord at = path.src;
  std::int32_t remaining = topology.distance(path.src, path.snk);
  if (static_cast<std::int32_t>(path.links.size()) != remaining) return false;
  for (const LinkId id : path.links) {
    if (id < 0 || id >= topology.num_links()) return false;
    const TopoLink& info = topology.link(id);
    if (info.from != at) return false;
    if (topology.distance(info.to, path.snk) != remaining - 1) return false;
    at = info.to;
    --remaining;
  }
  return at == path.snk;
}

}  // namespace

ValidationResult validate_structure(const Topology& topology, const CommSet& comms,
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
      if (!is_shortest_path(topology, flow.path)) {
        return fail(tag() + ": flow path is not a shortest " +
                    std::string(topology.name()) + " path");
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

ValidationResult validate_routing(const Topology& topology, const CommSet& comms,
                                  const Routing& routing, const PowerModel& model,
                                  std::size_t max_paths) {
  ValidationResult structure = validate_structure(topology, comms, routing, max_paths);
  if (!structure.ok) return structure;

  LinkLoads loads(topology.num_links());
  for (const CommRouting& routed : routing.per_comm) {
    for (const RoutedFlow& flow : routed.flows) loads.add_path(flow.path, flow.weight);
  }
  for (LinkId link = 0; link < topology.num_links(); ++link) {
    const double load = loads.load(link);
    if (!model.feasible(load)) {
      return fail("link " + topology.describe_link(link) + " overloaded: " +
                  std::to_string(load) + " > capacity " +
                  std::to_string(model.capacity()));
    }
  }
  return ValidationResult{true, {}};
}

void check_comm_set(const Topology& topology, const CommSet& comms) {
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const Communication& comm = comms[i];
    const auto tag = [&] {
      return "communication #" + std::to_string(i) + " " + to_string(comm);
    };
    PAMR_CHECK(topology.contains(comm.src), tag() + ": source outside the topology");
    PAMR_CHECK(topology.contains(comm.snk), tag() + ": sink outside the topology");
    PAMR_CHECK(comm.src != comm.snk, tag() + ": self-communication (src == snk)");
    PAMR_CHECK(std::isfinite(comm.weight) && comm.weight > 0.0,
               tag() + ": weight must be finite and strictly positive");
  }
}

bool verify_vc_acyclic(const Topology& topology, const Routing& routing) {
  // Vertices are (link, class) pairs, flattened as link * num_classes +
  // class; hop h of a flow occupies vc_classes(path)[h], and the packet can
  // hold that channel while requesting hop h+1's. Dally & Seitz on the
  // expanded graph covers both within-class cycles and (for the torus)
  // cross-class dateline transitions in one check.
  const std::int32_t num_classes = topology.num_vc_classes();
  ChannelDependencyGraph expanded(
      static_cast<std::size_t>(topology.num_links()) *
      static_cast<std::size_t>(num_classes));
  for (const CommRouting& routed : routing.per_comm) {
    for (const RoutedFlow& flow : routed.flows) {
      const Path& path = flow.path;
      const std::vector<std::int32_t> classes = topology.vc_classes(path);
      PAMR_ASSERT(classes.size() == path.links.size());
      const auto vertex = [&](std::size_t hop) {
        PAMR_ASSERT(classes[hop] >= 0 && classes[hop] < num_classes);
        return static_cast<LinkId>(path.links[hop]) * num_classes + classes[hop];
      };
      for (std::size_t hop = 0; hop + 1 < path.links.size(); ++hop) {
        expanded[static_cast<std::size_t>(vertex(hop))].push_back(vertex(hop + 1));
      }
    }
  }
  for (std::vector<LinkId>& edges : expanded) {
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  return !find_dependency_cycle(expanded).has_value();
}

}  // namespace topo
}  // namespace pamr
