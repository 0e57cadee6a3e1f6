// Runs the six base policies on one instance and folds the outcome into the
// campaign's scalar samples. An instance the infeasibility certificate
// (routing/infeasibility.hpp) proves unroutable is not routed: every policy
// would fail it, so its sample is six failures, marked `certified`. The
// others are routed with RouteGoal::kVerdict: a failing policy may stop at
// its first certain overload, since the sample never reads an invalid
// routing.
// Routers are constructed once per call — they are stateless, but
// constructing them here keeps the runner trivially thread-safe (the
// campaign calls it from every pool worker).
//
// With a sim::SimConfig the runner additionally drives the cycle-level NoC
// simulator on the instance's BEST routing (open-loop injection: the
// Injector offers each subflow weight/flit_mbps flits per cycle, so a
// layer's intensity envelope — which scaled the drawn weights — directly
// scales the injection rates) and folds latency / delivery / throughput
// into the sample next to power.
#pragma once

#include "pamr/comm/communication.hpp"
#include "pamr/exp/metrics.hpp"
#include "pamr/mesh/mesh.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/sim/simulator.hpp"
#include "pamr/topo/topology.hpp"

namespace pamr {
namespace exp {

/// `sim_config`, when non-null, requests the simulation probe; it runs iff
/// some policy produced a valid routing (the probe needs a routing to
/// program — the per-point sim stats' count() reveals how many instances
/// qualified). Deterministic in all arguments, including sim_config->seed.
/// Throws std::logic_error on a malformed set (check_comm_set).
[[nodiscard]] InstanceSample run_instance(const Mesh& mesh, const CommSet& comms,
                                          const PowerModel& model,
                                          const sim::SimConfig* sim_config = nullptr);

/// Topology variant (torus, diag): the six policy analogues via
/// topo::route_on. No simulation probe (the cycle simulator is rect-only;
/// ScenarioSpec rejects sim=on for other topologies at parse time) and no
/// certificate: every instance is routed. topo=rect instances take the
/// Mesh overload above.
[[nodiscard]] InstanceSample run_instance(const topo::Topology& topology,
                                          const CommSet& comms,
                                          const PowerModel& model);

}  // namespace exp
}  // namespace pamr
