// Infeasibility certificate: cheap necessary conditions for a single-path
// Manhattan routing to fit the link capacities, checked before any policy
// runs (the campaign's "presolve").
//
// Every §5 policy routes each communication on one Manhattan path, so an
// instance that no single-path Manhattan routing can carry fails all six
// of them. Three families of necessary conditions, each a Hall-type
// counting bound (cap = capacity() + kFeasibilityTolerance):
//
//   (a) Axis cuts. A communication with Δv > 0 crosses every vertical cut
//       between its source and sink columns eastbound, on one of the rows
//       [min u, max u] — its lane interval — and likewise westbound,
//       southbound and northbound on the other cuts. The lanes of one cut
//       in one direction are distinct links, so for every row range [a, b]
//       the communications whose lane interval lies inside it must fit on
//       those b−a+1 links: total weight ≤ (b−a+1)·cap, and at most b−a+1
//       of them heavier than cap/2 (two of those never share a link).
//   (b) Cores. A communication's first hop leaves its source on one of at
//       most two links (east or west, south or north, toward the sink),
//       and its last hop enters its sink on one of at most two. For every
//       set D of directions, the communications whose allowed directions
//       lie in D obey the same two limits with |D| links.
//   (c) A single weight above cap fits on no link.
//
// Soundness under floating point: a routing is valid when every link's
// load — a sum of positive weights — is ≤ cap as computed. Every sum the
// certificate forms also adds only non-negative terms, so each computed
// value is within a relative m·2⁻⁵³ of the exact one (m terms); for any
// instance this library can hold that is far below 1e-9. A limit therefore
// counts as violated only when exceeded by the relative margin 1e-9, and a
// certified instance has no routing the validator could accept.
//
// The certificate is incomplete by design: false means "not proven
// infeasible", never "feasible".
//
// The same margin decides the routers' fail-fast (RouteGoal::kVerdict in
// router.hpp): XY, SG, IG, TB and PR stop as soon as the weight committed
// to one link exceeds OverloadLimit. Committed weight only grows, and the
// committed communications keep that link in their final paths, so the
// complete routing's load on it is at least the committed sum. That sum is
// again a sum of positive weights, within a relative m·2⁻⁵³ of its exact
// value, so the validator's own sum of the final load exceeds cap too.
#pragma once

#include <cstdint>
#include <limits>

#include "pamr/comm/communication.hpp"
#include "pamr/mesh/mesh.hpp"
#include "pamr/power/power_model.hpp"

namespace pamr {

/// The capacity test of the certificate and of fail-fast: a load is over
/// capacity beyond rounding doubt when it exceeds
/// cap = capacity() + kFeasibilityTolerance by the relative margin 1e-9.
class OverloadLimit {
 public:
  static constexpr double kMargin = 1e-9;

  explicit OverloadLimit(const PowerModel& model) noexcept
      : per_link_((model.capacity() + PowerModel::kFeasibilityTolerance) *
                  (1.0 + kMargin)) {}

  /// A limit no load exceeds.
  [[nodiscard]] static OverloadLimit none() noexcept {
    return OverloadLimit(std::numeric_limits<double>::infinity());
  }

  /// True when `load` cannot fit on `links` links.
  [[nodiscard]] bool exceeded(double load, std::int32_t links = 1) const noexcept {
    return load > static_cast<double>(links) * per_link_;
  }

  /// The most one link may carry: cap·(1 + margin).
  [[nodiscard]] double per_link() const noexcept { return per_link_; }

 private:
  explicit OverloadLimit(double per_link) noexcept : per_link_(per_link) {}

  double per_link_;
};

/// True only when one of the conditions (a)–(c) above fails, i.e. no
/// single-path Manhattan routing of `comms` keeps every link within
/// model.capacity() + kFeasibilityTolerance. `comms` must have passed
/// check_comm_set. Allocates nothing per call once the calling thread's
/// scratch has grown to the instance size.
[[nodiscard]] bool no_feasible_manhattan_routing(const Mesh& mesh, const CommSet& comms,
                                                 const PowerModel& model);

}  // namespace pamr
