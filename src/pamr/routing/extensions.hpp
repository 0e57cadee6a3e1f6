// Extension routers beyond the paper's §5 portfolio.
//
// The paper's conclusion leaves open how close the heuristics are to the
// optimum; these two stronger (and slower) single-path policies probe the
// remaining headroom. They implement the same Router interface but are kept
// out of the BEST portfolio so the §6 reproduction stays faithful;
// bench/ablation_extensions compares them against BEST and the exact/FW
// bounds.
//
//  * RipUpRerouteRouter — negotiated congestion (PathFinder-style): start
//    from the DP-greedy routing, then repeatedly rip each communication out
//    and re-route it on the min-cost-delta Manhattan path given everyone
//    else's loads, until a full pass is quiescent. Deterministic.
//
//  * AnnealingRouter — simulated annealing over path assignments: a move
//    re-routes one communication onto a uniformly random monotone staircase;
//    acceptance follows Metropolis on the penalized LoadCost objective with
//    geometric cooling. Deterministic: the seed is a fixed constant.
#pragma once

#include <cstdint>

#include "pamr/routing/router.hpp"

namespace pamr {

struct RipUpOptions {
  std::int32_t max_passes = 20;  ///< hard cap; usually quiesces in 3-6 passes
};

class RipUpRerouteRouter final : public Router {
 public:
  explicit RipUpRerouteRouter(RipUpOptions options = {}) noexcept
      : options_(options) {}

  [[nodiscard]] const char* name() const noexcept override { return "RR"; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model,
                                       RouteGoal goal) const override;

 private:
  RipUpOptions options_;
};

class AnnealingRouter final : public Router {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "SA"; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model,
                                       RouteGoal goal) const override;
};

}  // namespace pamr
