#include "pamr/sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <string>
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
constexpr unsigned kPortMask = kNumMeshPorts - 1;  // kNumMeshPorts is a power of two

/// A flit knows where it stands on its path: `route` indexes the flat port
/// table, which holds each subflow's link directions followed by
/// kPortLocal, so port_table[route] is its output at the current node and
/// subflow_of[route] its subflow. This is the paper's deterministic table
/// routing: paths are Manhattan, so no node is visited twice and (subflow,
/// node) already fixes the hop.
struct Flit {
  std::int32_t route = 0;
  bool tail = false;            ///< last flit of its packet
  std::int64_t injected_at = 0; ///< cycle its packet was generated
};

/// One (communication, path) pair and its traffic source: a leaky bucket
/// offering weight/flit_mbps flits per cycle (deterministic spacing, random
/// initial phase so synchronized subflows don't beat against the
/// arbiters). Generated packets wait in an unbounded source queue, so an
/// overloaded routing shows up as backlog rather than silent loss.
struct Subflow {
  std::int32_t route = 0;           ///< its first port in the port table
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

/// A mesh input buffer: a ring of `depth` slots, plus what a router needs
/// to build its request masks and grant credits without reading a slot.
struct Ring {
  std::uint32_t head = 0;     ///< slot of the oldest flit
  std::uint32_t count = 0;    ///< flits held
  std::int8_t head_port = 0;  ///< the oldest flit's output port (count > 0)
  bool full = false;          ///< count == depth at the start of the cycle
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
  const auto depth = static_cast<std::uint32_t>(config.buffer_depth);
  const std::int32_t packet_length = config.packet_length;

  // Injection candidates grouped by (source node, first-hop output port);
  // zero-length subflows (src == snk) deliver without entering the mesh.
  std::vector<std::vector<std::size_t>> by_source_port(num_cores * kNumMeshPorts);
  std::vector<std::size_t> local_only;
  // Per node: the outputs some co-located source injects into.
  std::vector<unsigned> injectable(num_cores, 0);

  // A link is private when exactly one subflow uses it.
  std::vector<std::int32_t> users(static_cast<std::size_t>(mesh.num_links()), 0);
  std::size_t num_flows = 0;
  for (const CommRouting& comm_routing : routing.per_comm) {
    num_flows += comm_routing.flows.size();
    for (const RoutedFlow& flow : comm_routing.flows) {
      for (const LinkId link : flow.path.links) ++users[static_cast<std::size_t>(link)];
    }
  }

  Rng rng(config.seed);
  std::vector<Subflow> subflows;
  // Per port-table entry: the output port, the subflow, the link it leaves
  // by (kInvalidLink at the sink) and, when that link and every later one
  // of the path are private, how many links that private tail has (else 0).
  std::vector<std::int8_t> port_table;
  std::vector<std::int32_t> subflow_of;
  std::vector<LinkId> link_of;
  std::vector<std::int32_t> private_left;
  subflows.reserve(num_flows);  // a Subflow's deque is copied, not moved, on growth
  for (std::size_t ci = 0; ci < comms.size(); ++ci) {
    for (const RoutedFlow& flow : routing.per_comm[ci].flows) {
      Subflow subflow;
      subflow.route = static_cast<std::int32_t>(port_table.size());
      for (const LinkId link : flow.path.links) {
        port_table.push_back(static_cast<std::int8_t>(mesh.link(link).dir));
        link_of.push_back(link);
      }
      port_table.push_back(kPortLocal);
      link_of.push_back(kInvalidLink);
      subflow_of.resize(port_table.size(), static_cast<std::int32_t>(subflows.size()));
      private_left.resize(port_table.size(), 0);
      for (std::size_t at = port_table.size() - 1;
           at-- > static_cast<std::size_t>(subflow.route) &&
           users[static_cast<std::size_t>(link_of[at])] == 1;) {
        private_left[at] = private_left[at + 1] + 1;
      }
      subflow.rate = flow.weight / config.flit_mbps;
      PAMR_CHECK(subflow.rate > 0.0, "subflow with zero rate");
      subflow.accumulator = rng.uniform();  // random phase
      const int first = port_table[static_cast<std::size_t>(subflow.route)];
      if (first == kPortLocal) {
        subflow.source = num_cores;
        local_only.push_back(subflows.size());
      } else {
        subflow.source = static_cast<std::size_t>(mesh.core_index(comms[ci].src));
        by_source_port[subflow.source * kNumMeshPorts + static_cast<std::size_t>(first)]
            .push_back(subflows.size());
        injectable[subflow.source] |= 1U << first;
      }
      subflows.push_back(std::move(subflow));
    }
  }
  std::vector<std::size_t> inject_cursor(by_source_port.size(), 0);
  const auto port_at = [&](const Flit& flit) {
    return port_table[static_cast<std::size_t>(flit.route)];
  };

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
  std::vector<Ring> rings(num_cores * kNumMeshPorts);
  // Credits are granted against the start-of-cycle `full` flags, so a slot
  // freed this cycle is only reusable next cycle. A buffer popped while
  // full is listed here and its flag re-read once the arrivals commit.
  // Fixed capacity (each buffer is listed at most once a cycle), so a pop
  // stays small enough to inline.
  std::vector<std::size_t> popped_full(rings.size());
  std::size_t num_popped_full = 0;
  // At depth 1, the entry buffers of this cycle's retired flits (see
  // `send`); they are listed in popped_full for the next cycle.
  std::vector<std::size_t> entered(depth == 1 ? rings.size() : 0);
  std::size_t num_entered = 0;
  // Per (node, mesh output): the input port that won last, so the first
  // scan starts at port 0.
  std::vector<unsigned> last_winner(num_cores * kNumMeshPorts, kNumMeshPorts - 1);
  // Per node: bit p set while input ring p holds a flit, and packets queued
  // at the sources whose first hop leaves it (zero-hop subflows count into
  // a spare last slot no node reads).
  std::vector<unsigned> nonempty(num_cores, 0);
  std::vector<std::size_t> queued(num_cores + 1, 0);
  // The active set: bit n set while node n has a flit or a queued packet.
  // Only those routers are evaluated, which is exact because arrivals are
  // staged: a node's work changes mid-cycle only through its own step.
  std::vector<std::uint64_t> active((num_cores + 63) / 64, 0);
  const auto activate = [&](std::size_t n) { active[n / 64] |= 1ULL << (n % 64); };

  const auto pop = [&](std::size_t buffer) {
    Ring& ring = rings[buffer];
    const Flit flit = slots[buffer * depth + ring.head];
    ring.head = ring.head + 1 == depth ? 0 : ring.head + 1;
    if (ring.count-- == depth) popped_full[num_popped_full++] = buffer;
    if (ring.count == 0) {
      nonempty[buffer / kNumMeshPorts] &= ~(1U << (buffer & kPortMask));
    } else {
      ring.head_port = port_at(slots[buffer * depth + ring.head]);
    }
    return flit;
  };
  const auto pop_source = [&](std::size_t i) {
    Subflow& subflow = subflows[i];
    Flit flit;
    flit.route = subflow.route;
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

  // At most one flit crosses each link per cycle.
  std::vector<Arrival> arrivals(static_cast<std::size_t>(mesh.num_links()));
  std::size_t num_arrivals = 0;
  // Telemetry tallies, bumped once at the end so the loop pays nothing.
  std::uint64_t router_cycles = 0;
  std::uint64_t flit_hops = 0;
  std::uint64_t retired_hops = 0;

  // Sends a flit granted across `next` in `cycle`. If the rest of its path
  // is a private tail of `left` links it is retired: it would cross the
  // j-th of them in cycle + j and eject in cycle + left, so its link-busy
  // cycles and its delivery are counted now, clamped to the measured window
  // [warmup, cycles). Otherwise it is staged as an arrival.
  const auto send = [&](Flit flit, const Downstream& next, bool measuring,
                        std::int64_t cycle) {
    const auto at = static_cast<std::size_t>(flit.route);
    const std::int64_t left = private_left[at];
    if (left == 0) {
      ++flit.route;
      arrivals[num_arrivals++] = Arrival{next.buffer, flit};
      if (measuring) ++stats.link_busy_cycles[static_cast<std::size_t>(next.link)];
      return;
    }
    const std::int64_t hops = std::min(left, config.cycles - cycle);
    for (std::int64_t j = std::max<std::int64_t>(config.warmup - cycle, 0); j < hops; ++j) {
      ++stats.link_busy_cycles[static_cast<std::size_t>(link_of[at + static_cast<std::size_t>(j)])];
    }
    retired_hops += static_cast<std::uint64_t>(hops);
    if (const std::int64_t ejected = cycle + left;
        ejected >= config.warmup && ejected < config.cycles) {
      deliver(stats.per_subflow[static_cast<std::size_t>(subflow_of[at])], flit, ejected);
    }
    // A one-slot entry buffer would still hold the flit when the next
    // cycle's credits are read, so it refuses one credit. Its only upstream
    // link is the one just granted, so setting `full` now is safe.
    if (depth == 1) {
      rings[next.buffer].full = true;
      entered[num_entered++] = next.buffer;
    }
  };

  // Pops the head flit of `buffer`, which has reached its sink.
  const auto eject = [&](std::size_t buffer, bool measuring, std::int64_t cycle) {
    const Flit delivered = pop(buffer);
    if (measuring) {
      deliver(stats.per_subflow[static_cast<std::size_t>(
                  subflow_of[static_cast<std::size_t>(delivered.route)])],
              delivered, cycle);
    }
  };

  // One router's cycle. Mesh traffic has priority over injection on every
  // output port; the local output then drains.
  const auto step = [&](std::size_t n, bool measuring, std::int64_t cycle) {
    const std::size_t base = n * kNumMeshPorts;
    // Most steps find one buffered flit and nothing queued: it ejects, or
    // it is the only requester of its output, as in the general path below.
    if (const unsigned inputs = nonempty[n];
        queued[n] == 0 && std::has_single_bit(inputs)) {
      const auto port = static_cast<unsigned>(std::countr_zero(inputs));
      const std::size_t buffer = base + port;
      if (rings[buffer].count == 1) {
        const int out = rings[buffer].head_port;
        if (out == kPortLocal) {
          eject(buffer, measuring, cycle);
        } else if (const std::size_t output = base + static_cast<std::size_t>(out);
                   !rings[downstream[output].buffer].full) {
          last_winner[output] = port;
          send(pop(buffer), downstream[output], measuring, cycle);
        }
        return;
      }
    }
    // Request masks: bit p of want[out] is set while input p's head flit
    // leaves through out (want[kPortLocal]: it ends here). A pop clears
    // its bit and files the uncovered head, which can still take a later
    // output or the local drain this cycle, but not an earlier output.
    // `requested` has bit out set while want[out] is non-zero.
    std::array<unsigned, kNumMeshPorts + 1> want{};
    unsigned requested = 0;
    const auto file_head = [&](unsigned port) {
      const auto out = static_cast<unsigned>(rings[base + port].head_port);
      want[out] |= 1U << port;
      requested |= 1U << out;
    };
    for (unsigned m = nonempty[n]; m != 0; m &= m - 1) {
      file_head(static_cast<unsigned>(std::countr_zero(m)));
    }
    // The mesh outputs after `out` that have a request or, while packets
    // are queued here, an injection candidate.
    const auto pending_after = [&](int out) {
      const unsigned outputs = requested | (queued[n] > 0 ? injectable[n] : 0U);
      return outputs & ((1U << kNumMeshPorts) - 1) & (~0U << (out + 1));
    };

    for (unsigned outputs = pending_after(-1); outputs != 0;) {
      const int out = std::countr_zero(outputs);
      const std::size_t output = base + static_cast<std::size_t>(out);
      const Downstream& next = downstream[output];
      // Requests and injection candidates only name outputs with a link.
      PAMR_DCHECK(next.link != kInvalidLink);
      // Each input buffer has exactly one upstream link, so one credit
      // check per cycle suffices.
      if (!rings[next.buffer].full) {
        Flit moving;
        bool moved = true;
        if (const unsigned requests = want[static_cast<std::size_t>(out)]; requests != 0) {
          // Round robin: the first requesting input after the last winner.
          const unsigned start = (last_winner[output] + 1) & kPortMask;
          const unsigned rotated =
              ((requests >> start) | (requests << (kNumMeshPorts - start))) &
              ((1U << kNumMeshPorts) - 1);
          const unsigned winner =
              (start + static_cast<unsigned>(std::countr_zero(rotated))) & kPortMask;
          last_winner[output] = winner;
          const std::size_t buffer = base + winner;
          moving = pop(buffer);
          want[static_cast<std::size_t>(out)] &= ~(1U << winner);
          if (want[static_cast<std::size_t>(out)] == 0) requested &= ~(1U << out);
          if (rings[buffer].count > 0) file_head(winner);
        } else {
          // Output idle this cycle: inject from the co-located source
          // queues whose first hop uses this link (per-subflow virtual
          // injection channels, round robin advanced on tail flits).
          const auto& candidates = by_source_port[output];
          std::size_t& cursor = inject_cursor[output];
          moved = false;
          for (std::size_t tried = 0; tried < candidates.size(); ++tried) {
            std::size_t at = cursor + tried;
            if (at >= candidates.size()) at -= candidates.size();
            const std::size_t flow = candidates[at];
            if (subflows[flow].packets.empty()) continue;
            moving = pop_source(flow);
            moved = true;
            if (measuring) ++stats.per_subflow[flow].injected_flits;
            if (moving.tail) cursor = at + 1 == candidates.size() ? 0 : at + 1;
            break;
          }
        }
        if (moved) send(moving, next, measuring, cycle);
      }
      outputs = pending_after(out);
    }

    // Ejection is not a modeled resource (the paper constrains link
    // bandwidth only): drain every local-destined head flit. It runs
    // after the mesh outputs, so heads they uncovered leave this cycle.
    for (unsigned m = want[kPortLocal]; m != 0; m &= m - 1) {
      const std::size_t buffer = base + static_cast<unsigned>(std::countr_zero(m));
      while (rings[buffer].count > 0 && rings[buffer].head_port == kPortLocal) {
        eject(buffer, measuring, cycle);
      }
    }
  };

#if PAMR_CHECK_LEVEL >= 2
  // The buffers fed by a link a flit retires on: a private tail's links
  // only ever carry retired flits, so these stay empty.
  std::vector<bool> retiring(rings.size(), false);
  for (std::size_t at = 0; at < port_table.size(); ++at) {
    if (private_left[at] == 0) continue;
    const LinkInfo& link = mesh.link(link_of[at]);
    retiring[static_cast<std::size_t>(mesh.core_index(link.to)) * kNumMeshPorts +
             static_cast<std::size_t>(link.dir)] = true;
  }
  // Every cached view of the buffers and queues, re-derived from them.
  const auto check_state = [&] {
    std::vector<bool> held(rings.size(), false);
    for (std::size_t i = 0; i < num_popped_full; ++i) held[popped_full[i]] = true;
    for (std::size_t n = 0; n < num_cores; ++n) {
      bool holds = false;
      for (std::size_t port = 0; port < kNumMeshPorts; ++port) {
        const std::size_t buffer = n * kNumMeshPorts + port;
        const Ring& ring = rings[buffer];
        holds = holds || ring.count > 0;
        PAMR_INVARIANT("sim-state", ((nonempty[n] >> port) & 1U) == (ring.count > 0 ? 1U : 0U),
                       "non-empty mask of node " + std::to_string(n) + " disagrees at port " +
                           std::to_string(port));
        PAMR_INVARIANT("sim-state", !retiring[buffer] || ring.count == 0,
                       "buffer " + std::to_string(buffer) + " fed by a retiring link holds a flit");
        // Only a retired flit's one-slot entry buffer is held full while empty.
        PAMR_INVARIANT("sim-state",
                       ring.full == (ring.count == depth ||
                                     (held[buffer] && retiring[buffer] && depth == 1)),
                       "stale full flag on buffer " + std::to_string(buffer));
        PAMR_INVARIANT("sim-state",
                       ring.count == 0 ||
                           ring.head_port == port_at(slots[buffer * depth + ring.head]),
                       "stale head port on buffer " + std::to_string(buffer));
      }
      const bool busy = holds || queued[n] > 0;
      PAMR_INVARIANT("sim-state", ((active[n / 64] >> (n % 64)) & 1U) == (busy ? 1U : 0U),
                     "active bit of node " + std::to_string(n) + " disagrees with its work");
    }
  };
#endif

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
        if (subflow.source != num_cores) activate(subflow.source);
      }
    }

    // Arbitrate and traverse, router by router in node order; a router
    // that its own step leaves without work leaves the active set.
    num_arrivals = 0;
    for (std::size_t word = 0; word < active.size(); ++word) {
      for (std::uint64_t bits = active[word]; bits != 0; bits &= bits - 1) {
        const std::size_t n = word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        ++router_cycles;
        step(n, measuring, cycle);
        if (nonempty[n] == 0 && queued[n] == 0) active[word] &= ~(1ULL << (n % 64));
      }
    }
    flit_hops += num_arrivals;
    for (std::size_t a = 0; a < num_arrivals; ++a) {
      const Arrival& arrival = arrivals[a];
      Ring& ring = rings[arrival.buffer];
      PAMR_ASSERT(ring.count < depth);
      std::uint32_t tail = ring.head + ring.count;
      if (tail >= depth) tail -= depth;
      slots[arrival.buffer * depth + tail] = arrival.flit;
      if (ring.count++ == 0) ring.head_port = port_at(arrival.flit);
      ring.full = ring.count == depth;
      const std::size_t n = arrival.buffer / kNumMeshPorts;
      nonempty[n] |= 1U << (arrival.buffer & kPortMask);
      activate(n);
    }
    for (std::size_t i = 0; i < num_popped_full; ++i) {
      Ring& ring = rings[popped_full[i]];
      ring.full = ring.count == depth;
    }
    // A retired flit's entry buffer is read as full for one cycle, then
    // released like a buffer popped while full.
    std::copy_n(entered.begin(), num_entered, popped_full.begin());
    num_popped_full = num_entered;
    num_entered = 0;
#if PAMR_CHECK_LEVEL >= 2
    check_state();
#endif

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
  obs::bump(obs::Metric::kSimFlitHops, flit_hops + retired_hops);
  obs::bump(obs::Metric::kSimFlitHopsRetired, retired_hops);
  return stats;
}

}  // namespace sim
}  // namespace pamr
