// Routing policies over a Topology (torus, diag).
//
// The §5 heuristics were written against the rectangular mesh and its
// Manhattan-rectangle geometry, and topo=rect routes with them on `Mesh`
// directly. This layer gives every RouterKind a deterministic analogue
// built from the Topology primitives (next_steps / canonical_path /
// distance), with every tie-break pinned: XY routes canonically; SG walks
// hop-by-hop onto the least-loaded next step; IG walks onto the cheapest
// LoadCost delta (one hop walker serves both); TB picks the cheapest path
// among the ≤2-direction-change enumeration; XYI starts from the canonical
// routing and re-picks strictly improving ≤2-change paths per
// communication; PR unloads the most-loaded link by rerouting its heaviest
// crossing communication; BEST keeps the valid minimum-power result of the
// six. TB, XYI and PR pick with one strict-< argmin. The input check, the
// structure check and the power epilogue are routing/'s, shared with the
// mesh routers.
#pragma once

#include <vector>

#include "pamr/comm/communication.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/routing/router.hpp"
#include "pamr/topo/topology.hpp"

namespace pamr {
namespace topo {

/// Shortest src→snk paths with at most two direction changes (indices into
/// the topology's direction table compared hop to hop), enumerated by DFS
/// over next_steps in their pinned order — the canonical path always comes
/// first — and truncated deterministically at an enumeration cap (see
/// kMaxTwoChangePaths in the .cpp). The rect instance of "all Manhattan
/// paths with at most two bends" (§5.3), generalised.
[[nodiscard]] std::vector<Path> two_change_paths(const Topology& topology,
                                                 Coord src, Coord snk);

/// Routes `comms` on `topology` with the policy analogue of `kind`.
/// Validates the communication set first (throws std::logic_error on
/// malformed input); a deterministic function of its arguments.
[[nodiscard]] RouteResult route_on(const Topology& topology, RouterKind kind,
                                   const CommSet& comms, const PowerModel& model);

}  // namespace topo
}  // namespace pamr
