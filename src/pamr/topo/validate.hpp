// Topology-generic routing validation: routing/validate.hpp's structure and
// comm-set checks instantiated with "shortest path of the topology" (each
// hop must reduce the distance to the sink by exactly one) in place of
// "Manhattan path", plus the machine check for the per-topology
// virtual-channel deadlock-freedom argument.
#pragma once

#include "pamr/comm/communication.hpp"
#include "pamr/routing/routing.hpp"
#include "pamr/routing/validate.hpp"
#include "pamr/topo/topology.hpp"

namespace pamr {
namespace topo {

/// Structure-only validation: one entry per communication, 1..max_paths
/// flows of positive weight summing to δ_i, every flow a connected shortest
/// path of `topology` from the communication's source to its sink. Pass
/// max_paths 0 for unbounded.
[[nodiscard]] ValidationResult validate_structure(const Topology& topology,
                                                  const CommSet& comms,
                                                  const Routing& routing,
                                                  std::size_t max_paths = 1);

/// Input validation for the public boundary (topo::route_on): in-bounds
/// endpoints, distinct src and snk, finite strictly positive weight. Throws
/// std::logic_error (via PAMR_CHECK) naming the offending communication.
void check_comm_set(const Topology& topology, const CommSet& comms);

/// Machine check of the topology's virtual-channel scheme on a concrete
/// routing: builds the channel dependency graph over (link, VC class)
/// vertices — hop h of a flow occupies class vc_classes(path)[h] — and
/// verifies it is globally acyclic (Dally & Seitz over the expanded graph,
/// which also covers the torus's cross-class dateline transitions). Returns
/// true iff no cyclic wait can form.
[[nodiscard]] bool verify_vc_acyclic(const Topology& topology,
                                     const Routing& routing);

}  // namespace topo
}  // namespace pamr
