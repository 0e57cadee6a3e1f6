// The cycle-level NoC simulator. It shows dynamically what the paper's
// static analysis asserts: a routing whose per-link loads respect the
// bandwidths sustains the requested throughput on a buffered, credit
// flow-controlled mesh, and an overloaded routing does not.
//
// Each (communication, path) pair is a subflow with its own leaky-bucket
// source. Packets are fixed-length flit trains; a flit carries its index
// into one flat table of every subflow's ports, which names its output
// port at every node, so the routers hold no routing tables.
//
// Cycle structure (two-phase update so link traversal is simultaneous
// across the mesh): per router, per output port, a round-robin arbiter
// picks one mesh input whose head flit routes there; mesh outputs
// additionally need a free slot (credit) in the downstream input buffer,
// measured against its start-of-cycle occupancy. If no mesh input wants an
// output, the co-located source queues whose first hop uses it compete for
// injection (per-subflow virtual injection channels — no head-of-line
// blocking between flows sharing a source). Winning flits are staged and
// committed at the end of the cycle. After its mesh outputs, each router
// delivers every head flit that has reached its sink (ejection is not a
// modeled resource).
//
// The loop's work scales with the flits in flight, not with the mesh:
// - An active-router bitset (one 64-bit word per 64 cores) holds the
//   routers with a buffered flit or a queued packet. An arrival or a
//   generated packet sets a router's bit; its own step clears it once it
//   is left with neither. This is exact because arrivals are staged.
// - Each input buffer caches its head flit's output port, and each router
//   a 4-bit mask of its non-empty inputs, so the per-output request masks
//   come from set bits without reading a flit. A pop clears the winner's
//   bit and files the head it uncovered, which may still take a later
//   output or the local drain in the same cycle, but not an earlier one.
// - Outputs are visited through a pending mask: the requested outputs
//   plus, while packets are queued, the outputs the node's sources inject
//   into, recomputed after each output for the later ones.
// - Credits are read from per-buffer `full` flags that keep the
//   start-of-cycle state; a buffer popped while full is re-checked after
//   the arrivals commit.
// - A flit is retired when it is granted onto a link from which every link
//   left on its path is private (used by its subflow alone). That tail has
//   one requester per output, each of its buffers is fed by one private
//   link and ejection is not modeled, so at depth >= 2 a flit granted in
//   cycle c crosses the tail's j-th link in cycle c + j and ejects in
//   c + (tail length). Every SimStats field is an order-free tally, so its
//   link-busy cycles and delivery are counted at the grant, clamped to
//   [warmup, cycles), and it is never buffered. At depth 1 the tail's first
//   buffer refuses the next cycle's credit, as the flit would still fill it.
// At PAMR_CHECK_LEVEL >= 2 the "sim-state" invariant re-derives the
// active set, the non-empty masks, the head ports and the full flags from
// the buffers and queues after every cycle, and checks that every buffer
// fed by a retiring link is empty.
//
// A valid routing keeps every source queue bounded and delivers ≈ 100 % of
// offered traffic; an overloaded link shows up as utilization pinned at
// 1.0 plus growing backlog on the flows crossing it.
#pragma once

#include <cstdint>

#include "pamr/comm/communication.hpp"
#include "pamr/mesh/mesh.hpp"
#include "pamr/routing/routing.hpp"
#include "pamr/sim/sim_stats.hpp"

namespace pamr {
namespace sim {

struct SimConfig {
  std::int64_t cycles = 20000;      ///< total simulated cycles
  std::int64_t warmup = 2000;       ///< cycles excluded from measurement
  std::int32_t buffer_depth = 4;    ///< input FIFO slots per port
  std::int32_t packet_length = 4;   ///< flits per packet
  double flit_mbps = 3500.0;        ///< bandwidth one flit/cycle represents
  std::uint64_t seed = 0x5eedULL;   ///< injection phase randomization
};

/// Runs the network built from (mesh, comms, routing) and returns the
/// measured statistics. The routing must be structurally valid; bandwidth
/// feasibility is exactly what the simulation probes, so it is NOT required.
[[nodiscard]] SimStats simulate(const Mesh& mesh, const CommSet& comms,
                                const Routing& routing, const SimConfig& config);

}  // namespace sim
}  // namespace pamr
