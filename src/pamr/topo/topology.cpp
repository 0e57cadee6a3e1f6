#include "pamr/topo/topology.hpp"

#include <algorithm>
#include <queue>

#include "pamr/topo/topologies.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {
namespace topo {

const char* to_cstring(TopoKind kind) noexcept {
  switch (kind) {
    case TopoKind::kRect: return "rect";
    case TopoKind::kTorus: return "torus";
    case TopoKind::kDiag: return "diag";
  }
  return "?";
}

bool parse_topo_kind(std::string_view text, TopoKind& out) noexcept {
  for (int k = 0; k < kNumTopoKinds; ++k) {
    const auto kind = static_cast<TopoKind>(k);
    if (text == to_cstring(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

Topology::Topology(TopoKind kind, std::int32_t p, std::int32_t q,
                   std::int32_t num_dirs)
    : kind_(kind), p_(p), q_(q), num_dirs_(num_dirs) {
  PAMR_CHECK(p >= 1 && q >= 1, "topology dimensions must be positive");
  PAMR_CHECK(num_dirs >= 1, "topology needs a direction table");
  link_of_core_dir_.assign(
      static_cast<std::size_t>(num_cores()) * static_cast<std::size_t>(num_dirs),
      kInvalidLink);
}

void Topology::add_link(Coord from, std::int32_t dir, Coord to) {
  PAMR_ASSERT(contains(from) && contains(to));
  PAMR_ASSERT(dir >= 0 && dir < num_dirs_);
  const std::size_t slot =
      static_cast<std::size_t>(core_index(from)) * static_cast<std::size_t>(num_dirs_) +
      static_cast<std::size_t>(dir);
  PAMR_ASSERT(link_of_core_dir_[slot] == kInvalidLink);
  link_of_core_dir_[slot] = static_cast<LinkId>(links_.size());
  links_.push_back(TopoLink{from, to, dir});
}

const TopoLink& Topology::link(LinkId id) const {
  PAMR_CHECK(id >= 0 && id < num_links(), "link id out of range");
  return links_[static_cast<std::size_t>(id)];
}

LinkId Topology::link_from(Coord from, std::int32_t dir) const {
  PAMR_CHECK(contains(from), "core outside topology");
  PAMR_CHECK(dir >= 0 && dir < num_dirs_, "direction out of range");
  return link_of_core_dir_[static_cast<std::size_t>(core_index(from)) *
                               static_cast<std::size_t>(num_dirs_) +
                           static_cast<std::size_t>(dir)];
}

LinkId Topology::link_between(Coord from, Coord to) const {
  PAMR_CHECK(contains(from) && contains(to), "link endpoints outside topology");
  for (std::int32_t dir = 0; dir < num_dirs_; ++dir) {
    const LinkId id = link_from(from, dir);
    if (id != kInvalidLink && links_[static_cast<std::size_t>(id)].to == to) return id;
  }
  PAMR_CHECK(false, "cores are not neighbours in this topology");
  return kInvalidLink;  // unreachable
}

std::string Topology::describe_link(LinkId id) const {
  const TopoLink& info = link(id);
  return to_string(info.from) + "->" + to_string(info.to);
}

Path Topology::canonical_path(Coord src, Coord snk) const {
  Path path;
  path.src = src;
  path.snk = snk;
  Coord at = src;
  while (at != snk) {
    const std::vector<TopoStep> steps = next_steps(at, snk);
    PAMR_ASSERT_MSG(!steps.empty(), "next_steps empty before reaching the sink");
    path.links.push_back(steps.front().link);
    at = steps.front().to;
  }
  return path;
}

std::unique_ptr<const Topology> make_topology(TopoKind kind, std::int32_t p,
                                              std::int32_t q) {
  PAMR_CHECK(kind != TopoKind::kRect,
             "topo=rect has no Topology: route on the Mesh (make_router, "
             "exp::run_instance(const Mesh&, ...))");
  switch (kind) {
    case TopoKind::kRect: break;  // rejected above
    case TopoKind::kTorus: return std::make_unique<TorusTopology>(p, q);
    case TopoKind::kDiag: return std::make_unique<DiagTopology>(p, q);
  }
  PAMR_CHECK(false, "unknown topology kind");
  return nullptr;  // unreachable
}

DistanceStats distance_stats(const Topology& topology) {
  // BFS from every core over the link graph. The per-core adjacency is
  // materialized once; duplicate neighbours (a dimension-2 torus axis has
  // two parallel links per pair) are harmless for BFS.
  const std::int32_t n = topology.num_cores();
  std::vector<std::vector<std::int32_t>> out(static_cast<std::size_t>(n));
  for (const TopoLink& link : topology.links()) {
    out[static_cast<std::size_t>(topology.core_index(link.from))].push_back(
        topology.core_index(link.to));
  }
  DistanceStats stats;
  std::vector<std::int32_t> dist(static_cast<std::size_t>(n));
  for (std::int32_t source = 0; source < n; ++source) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[static_cast<std::size_t>(source)] = 0;
    std::queue<std::int32_t> frontier;
    frontier.push(source);
    while (!frontier.empty()) {
      const std::int32_t core = frontier.front();
      frontier.pop();
      for (const std::int32_t next : out[static_cast<std::size_t>(core)]) {
        if (dist[static_cast<std::size_t>(next)] >= 0) continue;
        dist[static_cast<std::size_t>(next)] = dist[static_cast<std::size_t>(core)] + 1;
        frontier.push(next);
      }
    }
    for (std::int32_t core = 0; core < n; ++core) {
      const std::int32_t d = dist[static_cast<std::size_t>(core)];
      PAMR_ASSERT_MSG(d >= 0, "topology link graph is not strongly connected");
      stats.total_hops += d;
      if (d > stats.diameter) stats.diameter = d;
    }
  }
  return stats;
}

}  // namespace topo
}  // namespace pamr
