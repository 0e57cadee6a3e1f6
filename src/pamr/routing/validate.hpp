// Routing validator — the referee for every heuristic, solver and test.
//
// A routing is valid (paper §3.4) iff:
//   * it has one entry per communication,
//   * each communication is split into 1..s flows of positive weight whose
//     weights sum to δ_i,
//   * every flow's path is a Manhattan path from the communication's source
//     to its sink,
//   * no link's accumulated load exceeds the model capacity.
//
// The structure and comm-set checks are written once, as templates over the
// network's path and containment tests: the Mesh overloads below and
// topo/validate.hpp's Topology ones are their two instantiations, so both
// report the same texts.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>

#include "pamr/comm/communication.hpp"
#include "pamr/mesh/mesh.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/routing/routing.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

struct ValidationResult {
  bool ok = false;
  std::string error;  ///< empty iff ok

  explicit operator bool() const noexcept { return ok; }
};

/// `max_paths` is the routing rule's s (1 for XY/1-MP); pass 0 for
/// unbounded (max-MP).
[[nodiscard]] ValidationResult validate_routing(const Mesh& mesh, const CommSet& comms,
                                                const Routing& routing,
                                                const PowerModel& model,
                                                std::size_t max_paths = 1);

/// Structure-only variant: checks splitting and Manhattan paths but not
/// bandwidth (used while reasoning about intentionally infeasible routings).
[[nodiscard]] ValidationResult validate_structure(const Mesh& mesh, const CommSet& comms,
                                                  const Routing& routing,
                                                  std::size_t max_paths = 1);

/// Input validation for the public routing boundary (Router::route): every
/// communication must have in-bounds endpoints, distinct src and snk, and a
/// finite, strictly positive weight. Throws std::logic_error (via
/// PAMR_CHECK) naming the offending communication; does nothing on a valid
/// set. An empty CommSet is valid.
void check_comm_set(const Mesh& mesh, const CommSet& comms);

/// "communication #<index> <comm>": the tag that starts every
/// per-communication message of both checks below.
[[nodiscard]] std::string comm_tag(std::size_t index, const Communication& comm);

/// The structure check behind every validate_structure: one entry per
/// communication, 1..max_paths flows (0 = unbounded) of positive weight
/// summing to δ_i, every flow running from the communication's source to
/// its sink along a path `is_path` accepts. `path_noun` names what it
/// accepts in the text "flow path is not a <path_noun>".
template <class IsPath>
[[nodiscard]] ValidationResult validate_structure_with(const CommSet& comms,
                                                       const Routing& routing,
                                                       std::size_t max_paths,
                                                       const IsPath& is_path,
                                                       const char* path_noun) {
  // Relative tolerance for comparing flow-weight sums against δ_i: splits
  // are computed with a handful of additions, so anything past 1e-9
  // relative is a logic error, not round-off.
  constexpr double kWeightTolerance = 1e-9;
  if (routing.per_comm.size() != comms.size()) {
    return ValidationResult{false, "routing covers " +
                                       std::to_string(routing.per_comm.size()) +
                                       " communications, expected " +
                                       std::to_string(comms.size())};
  }
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const Communication& comm = comms[i];
    const CommRouting& routed = routing.per_comm[i];
    // Built only on failure: this runs on every routed instance.
    const auto fail = [&](const std::string& what) {
      return ValidationResult{false, comm_tag(i, comm) + ": " + what};
    };
    if (routed.flows.empty()) return fail("no flows");
    if (max_paths != 0 && routed.flows.size() > max_paths) {
      return fail(std::to_string(routed.flows.size()) + " flows exceed the rule's s=" +
                  std::to_string(max_paths));
    }
    double sum = 0.0;
    for (const RoutedFlow& flow : routed.flows) {
      if (flow.weight <= 0.0) return fail("non-positive flow weight");
      if (flow.path.src != comm.src || flow.path.snk != comm.snk) {
        return fail("flow endpoints differ from the communication's");
      }
      if (!is_path(flow.path)) return fail(std::string("flow path is not a ") + path_noun);
      sum += flow.weight;
    }
    const double scale = std::max(1.0, std::abs(comm.weight));
    if (std::abs(sum - comm.weight) > kWeightTolerance * scale) {
      return fail("flow weights sum to " + std::to_string(sum) + ", expected " +
                  std::to_string(comm.weight));
    }
  }
  return ValidationResult{true, {}};
}

/// The input check behind every check_comm_set: `contains(coord)` bounds
/// the endpoints, and `network` names the network in the text "source
/// outside the <network>".
template <class Contains>
void check_comm_set_with(const CommSet& comms, const Contains& contains,
                         const char* network) {
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const Communication& comm = comms[i];
    // The message expressions below are only evaluated on failure, so the
    // happy path allocates nothing.
    const auto tag = [&] { return comm_tag(i, comm); };
    PAMR_CHECK(contains(comm.src), tag() + ": source outside the " + network);
    PAMR_CHECK(contains(comm.snk), tag() + ": sink outside the " + network);
    PAMR_CHECK(comm.src != comm.snk, tag() + ": self-communication (src == snk)");
    PAMR_CHECK(std::isfinite(comm.weight) && comm.weight > 0.0,
               tag() + ": weight must be finite and strictly positive");
  }
}

}  // namespace pamr
