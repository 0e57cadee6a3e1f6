#include "pamr/topo/validate.hpp"

#include <algorithm>

#include "pamr/routing/deadlock.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {
namespace topo {

namespace {

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

/// The path family named in structure rejections: "shortest <name> path".
const char* shortest_path_noun(TopoKind kind) noexcept {
  switch (kind) {
    case TopoKind::kRect: return "shortest rect path";
    case TopoKind::kTorus: return "shortest torus path";
    case TopoKind::kDiag: return "shortest diag path";
  }
  return "shortest path";
}

}  // namespace

ValidationResult validate_structure(const Topology& topology, const CommSet& comms,
                                    const Routing& routing, std::size_t max_paths) {
  return validate_structure_with(
      comms, routing, max_paths,
      [&topology](const Path& path) { return is_shortest_path(topology, path); },
      shortest_path_noun(topology.kind()));
}

void check_comm_set(const Topology& topology, const CommSet& comms) {
  check_comm_set_with(
      comms, [&topology](Coord c) { return topology.contains(c); }, "topology");
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
