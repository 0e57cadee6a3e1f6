// Exact 1-MP solver by branch-and-bound (the paper's future-work item:
// "compute the optimal solution for small problem instances, so that we
// could give an insight on the absolute performance of our heuristics").
//
// Search space: one Manhattan path per communication, enumerated per
// rectangle (Lemma 1 counts them; the solver refuses instances whose
// per-communication path count exceeds a limit). Communications are
// explored heaviest-first.
//
// Bounding: the power of the committed loads is monotone non-decreasing in
// every link load (convex dynamic curve, upward quantization, additive
// leakage), so the partial power is admissible; the unrouted remainder is
// bounded by Σ ℓ_i · Pdyn_cont(δ_i) — every path of γ_i uses ℓ_i links each
// carrying at least δ_i of fresh traffic, and the continuous dynamic curve
// is superadditive (f convex, f(0)=0 ⇒ f(a+b) ≥ f(a)+f(b)) so fresh traffic
// costs at least its isolated dynamic power. An infeasible partial load is
// pruned outright (loads only grow).
#pragma once

#include <cstdint>
#include <optional>

#include "pamr/comm/communication.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/routing/routing.hpp"

namespace pamr {

struct ExactResult {
  std::optional<Routing> routing;  ///< nullopt if no feasible 1-MP routing exists
  double power = 0.0;              ///< optimal power, defined iff routing
  std::uint64_t nodes = 0;         ///< explored search nodes
  bool complete = false;           ///< search ran to proof (not node-capped)
};

[[nodiscard]] ExactResult solve_exact_1mp(const Mesh& mesh, const CommSet& comms,
                                          const PowerModel& model);

}  // namespace pamr
