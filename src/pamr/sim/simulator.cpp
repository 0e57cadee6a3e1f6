#include "pamr/sim/simulator.hpp"

#include <array>
#include <bit>
#include <deque>
#include <utility>
#include <vector>

#include "pamr/obs/obs.hpp"
#include "pamr/routing/validate.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/rng.hpp"

namespace pamr {
namespace sim {

namespace {

// Ports: the four mesh directions (LinkDir numbering) plus local ejection.
// A flit that crossed a link travelling east sits in the receiver's east
// input buffer: port identity only has to be consistent, not geographic.
constexpr int kNumMeshPorts = 4;
constexpr int kPortLocal = 4;

/// A flit knows its subflow and how many links it has crossed; its output
/// port at the current node is ports[hop] of that subflow. This is the
/// paper's deterministic table routing: paths are Manhattan, so no node is
/// visited twice and (subflow, node) already fixes the hop.
struct Flit {
  std::int32_t subflow = -1;
  std::int32_t hop = 0;
  bool tail = false;            ///< last flit of its packet
  std::int64_t injected_at = 0; ///< cycle its packet was generated
};

/// One (communication, path) pair and its traffic source: a leaky bucket
/// offering weight/flit_mbps flits per cycle (deterministic spacing, random
/// initial phase so synchronized subflows don't beat against the
/// arbiters). Generated packets wait in an unbounded source queue, so an
/// overloaded routing shows up as backlog rather than silent loss.
struct Subflow {
  std::vector<int> ports;           ///< link directions, then kPortLocal
  std::size_t source = 0;           ///< its slot in the per-node queued counts
  double rate = 0.0;                ///< flits per cycle
  double accumulator = 0.0;         ///< fractional flit credit
  std::deque<std::int64_t> packets; ///< generation cycle of each queued packet
  std::int32_t sent = 0;            ///< flits of packets.front() already injected
  std::int64_t generated = 0;       ///< flits
};

/// The mesh link leaving a (node, output port) and the input buffer it
/// feeds; link == kInvalidLink on the mesh boundary.
struct Downstream {
  LinkId link = kInvalidLink;
  std::size_t buffer = 0;  ///< receiving node * kNumMeshPorts + input port
};

struct Arrival {
  std::size_t buffer = 0;
  Flit flit;
};

void deliver(SubflowStats& stats, const Flit& flit, std::int64_t cycle) {
  ++stats.delivered_flits;
  stats.latency_sum += static_cast<double>(cycle - flit.injected_at);
  if (flit.tail) ++stats.delivered_packets;
}

}  // namespace

SimStats simulate(const Mesh& mesh, const CommSet& comms, const Routing& routing,
                  const SimConfig& config) {
  PAMR_CHECK(config.cycles > config.warmup && config.warmup >= 0,
             "need cycles > warmup >= 0");
  const ValidationResult structure = validate_structure(mesh, comms, routing, 0);
  PAMR_CHECK(structure.ok, "structurally invalid routing: " + structure.error);
  PAMR_CHECK(config.buffer_depth >= 1, "buffers need at least one slot");
  PAMR_CHECK(config.flit_mbps > 0.0, "flit bandwidth must be positive");
  PAMR_CHECK(config.packet_length >= 1, "packets need at least one flit");

  const auto num_cores = static_cast<std::size_t>(mesh.num_cores());
  const auto depth = static_cast<std::size_t>(config.buffer_depth);
  const std::int32_t packet_length = config.packet_length;

  // Injection candidates grouped by (source node, first-hop output port);
  // zero-length subflows (src == snk) deliver without entering the mesh.
  std::vector<std::vector<std::size_t>> by_source_port(num_cores * kNumMeshPorts);
  std::vector<std::size_t> local_only;

  Rng rng(config.seed);
  std::vector<Subflow> subflows;
  std::size_t num_flows = 0;
  for (const CommRouting& comm_routing : routing.per_comm) num_flows += comm_routing.flows.size();
  subflows.reserve(num_flows);  // a Subflow's deque is copied, not moved, on growth
  for (std::size_t ci = 0; ci < comms.size(); ++ci) {
    for (const RoutedFlow& flow : routing.per_comm[ci].flows) {
      Subflow subflow;
      for (const LinkId link : flow.path.links) {
        subflow.ports.push_back(static_cast<int>(mesh.link(link).dir));
      }
      subflow.ports.push_back(kPortLocal);
      subflow.rate = flow.weight / config.flit_mbps;
      PAMR_CHECK(subflow.rate > 0.0, "subflow with zero rate");
      subflow.accumulator = rng.uniform();  // random phase
      if (subflow.ports.front() == kPortLocal) {
        subflow.source = num_cores;
        local_only.push_back(subflows.size());
      } else {
        subflow.source = static_cast<std::size_t>(mesh.core_index(comms[ci].src));
        by_source_port[subflow.source * kNumMeshPorts +
                       static_cast<std::size_t>(subflow.ports.front())]
            .push_back(subflows.size());
      }
      subflows.push_back(std::move(subflow));
    }
  }
  std::vector<std::size_t> inject_cursor(by_source_port.size(), 0);

  std::vector<Downstream> downstream(num_cores * kNumMeshPorts);
  for (std::size_t n = 0; n < num_cores; ++n) {
    const Coord at = mesh.core_coord(static_cast<std::int32_t>(n));
    for (std::size_t out = 0; out < kNumMeshPorts; ++out) {
      const LinkId link = mesh.link_from(at, static_cast<LinkDir>(out));
      if (link == kInvalidLink) continue;
      const auto to = static_cast<std::size_t>(mesh.core_index(mesh.link(link).to));
      downstream[n * kNumMeshPorts + out] = Downstream{link, to * kNumMeshPorts + out};
    }
  }

  // Mesh input buffers: one ring of `depth` slots per (node, input port).
  std::vector<Flit> slots(num_cores * kNumMeshPorts * depth);
  std::vector<std::size_t> head(num_cores * kNumMeshPorts, 0);
  std::vector<std::size_t> count(num_cores * kNumMeshPorts, 0);
  // Start-of-cycle occupancies: credits are granted against these, so a
  // slot freed this cycle is only reusable next cycle.
  std::vector<std::size_t> snapshot(count.size(), 0);
  // Per (node, mesh output): the input port that won last, so the first
  // scan starts at port 0.
  std::vector<int> last_winner(num_cores * kNumMeshPorts, kNumMeshPorts - 1);
  // Per node: flits in its four input rings, and packets queued at the
  // sources whose first hop leaves it (zero-hop subflows count into a spare
  // last slot no node reads). A node with both at zero has nothing to
  // arbitrate, inject or drain, so the cycle loop skips it.
  std::vector<std::size_t> occupancy(num_cores, 0);
  std::vector<std::size_t> queued(num_cores + 1, 0);

  const auto head_flit = [&](std::size_t buffer) -> const Flit& {
    return slots[buffer * depth + head[buffer]];
  };
  const auto port_of = [&](const Flit& flit) {
    return subflows[static_cast<std::size_t>(flit.subflow)]
        .ports[static_cast<std::size_t>(flit.hop)];
  };
  const auto pop = [&](std::size_t buffer) {
    const std::size_t slot = buffer * depth + head[buffer];
    head[buffer] = (head[buffer] + 1) % depth;
    --count[buffer];
    --occupancy[buffer / kNumMeshPorts];
    return slots[slot];
  };
  const auto pop_source = [&](std::size_t i) {
    Subflow& subflow = subflows[i];
    Flit flit;
    flit.subflow = static_cast<std::int32_t>(i);
    flit.tail = subflow.sent == packet_length - 1;
    flit.injected_at = subflow.packets.front();
    if (++subflow.sent == packet_length) {
      subflow.packets.pop_front();
      subflow.sent = 0;
      --queued[subflow.source];
    }
    return flit;
  };

  SimStats stats;
  stats.flit_mbps = config.flit_mbps;
  stats.measured_cycles = config.cycles - config.warmup;
  stats.per_subflow.resize(subflows.size());
  stats.link_busy_cycles.assign(static_cast<std::size_t>(mesh.num_links()), 0);
  std::vector<std::int64_t> offered_at_warmup(subflows.size(), 0);

  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<std::size_t>(mesh.num_links()));
  // Telemetry tallies, bumped once at the end so the loop pays nothing.
  std::uint64_t router_cycles = 0;
  std::uint64_t flit_hops = 0;

  for (std::int64_t cycle = 0; cycle < config.cycles; ++cycle) {
    const bool measuring = cycle >= config.warmup;
    if (cycle == config.warmup) {
      for (std::size_t i = 0; i < subflows.size(); ++i) {
        offered_at_warmup[i] = subflows[i].generated;
      }
    }

    for (Subflow& subflow : subflows) {
      subflow.accumulator += subflow.rate;
      while (subflow.accumulator >= static_cast<double>(packet_length)) {
        subflow.accumulator -= static_cast<double>(packet_length);
        subflow.packets.push_back(cycle);
        subflow.generated += packet_length;
        ++queued[subflow.source];
      }
    }

    snapshot = count;

    // Arbitrate and traverse. Mesh traffic has priority over injection on
    // every output port; each node's local output then drains.
    arrivals.clear();
    for (std::size_t n = 0; n < num_cores; ++n) {
      if (occupancy[n] == 0 && queued[n] == 0) continue;  // idle router
      ++router_cycles;
      const std::size_t base = n * kNumMeshPorts;
      // Request masks: bit p of want[out] is set while input p's head flit
      // leaves through out (want[kPortLocal]: it ends here). A pop clears
      // its bit and files the uncovered head, which can still take a later
      // output or the local drain this cycle, but not an earlier output.
      std::array<unsigned, kNumMeshPorts + 1> want{};
      for (int port = 0; port < kNumMeshPorts; ++port) {
        const std::size_t buffer = base + static_cast<std::size_t>(port);
        if (count[buffer] > 0) want[port_of(head_flit(buffer))] |= 1U << port;
      }
      const auto pop_head = [&](int port, int out) {
        const std::size_t buffer = base + static_cast<std::size_t>(port);
        const Flit flit = pop(buffer);
        want[out] &= ~(1U << port);
        if (count[buffer] > 0) want[port_of(head_flit(buffer))] |= 1U << port;
        return flit;
      };

      for (int out = 0; out < kNumMeshPorts; ++out) {
        if (want[out] == 0 && queued[n] == 0) continue;  // nothing to send
        const std::size_t output = base + static_cast<std::size_t>(out);
        const Downstream& next = downstream[output];
        if (next.link == kInvalidLink) continue;
        // Each input buffer has exactly one upstream link, so one credit
        // check per cycle suffices.
        if (snapshot[next.buffer] >= depth) continue;  // no credit downstream

        Flit moving;
        if (want[out] != 0) {
          // Round robin: the first requesting input after the last winner.
          const unsigned start = static_cast<unsigned>(last_winner[output] + 1) % kNumMeshPorts;
          const unsigned rotated =
              ((want[out] >> start) | (want[out] << (kNumMeshPorts - start))) &
              ((1U << kNumMeshPorts) - 1);
          const int winner =
              static_cast<int>((start + static_cast<unsigned>(std::countr_zero(rotated))) %
                               kNumMeshPorts);
          last_winner[output] = winner;
          moving = pop_head(winner, out);
        } else {
          // Output idle this cycle: inject from the co-located source
          // queues whose first hop uses this link (per-subflow virtual
          // injection channels, round robin advanced on tail flits).
          const auto& candidates = by_source_port[output];
          std::size_t& cursor = inject_cursor[output];
          bool injected = false;
          for (std::size_t tried = 0; tried < candidates.size(); ++tried) {
            const std::size_t flow = candidates[(cursor + tried) % candidates.size()];
            if (subflows[flow].packets.empty()) continue;
            moving = pop_source(flow);
            injected = true;
            if (measuring) ++stats.per_subflow[flow].injected_flits;
            if (moving.tail) cursor = (cursor + tried + 1) % candidates.size();
            break;
          }
          if (!injected) continue;
        }
        ++moving.hop;
        arrivals.push_back(Arrival{next.buffer, moving});
        if (measuring) ++stats.link_busy_cycles[static_cast<std::size_t>(next.link)];
      }

      // Ejection is not a modeled resource (the paper constrains link
      // bandwidth only): drain every local-destined head flit. It runs
      // after the mesh outputs, so heads they uncovered leave this cycle.
      for (int port = 0; port < kNumMeshPorts; ++port) {
        if ((want[kPortLocal] & (1U << port)) == 0) continue;
        const std::size_t buffer = base + static_cast<std::size_t>(port);
        while (count[buffer] > 0 && port_of(head_flit(buffer)) == kPortLocal) {
          const Flit delivered = pop(buffer);
          if (measuring) {
            deliver(stats.per_subflow[static_cast<std::size_t>(delivered.subflow)],
                    delivered, cycle);
          }
        }
      }
    }
    flit_hops += arrivals.size();
    for (const Arrival& arrival : arrivals) {
      PAMR_ASSERT(count[arrival.buffer] < depth);
      slots[arrival.buffer * depth + (head[arrival.buffer] + count[arrival.buffer]) % depth] =
          arrival.flit;
      ++count[arrival.buffer];
      ++occupancy[arrival.buffer / kNumMeshPorts];
    }

    // Zero-hop subflows: deliver straight from the source queue.
    for (const std::size_t flow : local_only) {
      while (!subflows[flow].packets.empty()) {
        const Flit flit = pop_source(flow);
        if (measuring) {
          ++stats.per_subflow[flow].injected_flits;
          deliver(stats.per_subflow[flow], flit, cycle);
        }
      }
    }
  }

  for (std::size_t i = 0; i < subflows.size(); ++i) {
    const Subflow& subflow = subflows[i];
    stats.per_subflow[i].backlog =
        static_cast<std::int64_t>(subflow.packets.size()) * packet_length - subflow.sent;
    stats.per_subflow[i].offered_flits = subflow.generated - offered_at_warmup[i];
  }
  obs::bump(obs::Metric::kSimRouterCycles, router_cycles);
  obs::bump(obs::Metric::kSimFlitHops, flit_hops);
  return stats;
}

}  // namespace sim
}  // namespace pamr
