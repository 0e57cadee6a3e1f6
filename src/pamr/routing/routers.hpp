// Concrete router classes (paper §5). Each lives in its own translation
// unit; the algorithmic interpretation choices are documented there and
// summarized in DESIGN.md §3.
#pragma once

#include <vector>

#include "pamr/routing/router.hpp"

namespace pamr {

/// XY routing (§1): horizontal first, then vertical. The baseline.
class XYRouter final : public Router {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "XY"; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model,
                                       RouteGoal goal) const override;
};

/// SG — simple greedy (§5.1): communications by decreasing weight, path
/// built hop by hop onto the least-loaded feasible next link, ties broken
/// toward the source–sink diagonal.
class SimpleGreedyRouter final : public Router {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "SG"; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model,
                                       RouteGoal goal) const override;
};

/// IG — improved greedy (§5.2): virtual diagonal-spread pre-routing, then
/// per-communication commitment guided by a per-cut lower bound. The bound
/// is read from a per-communication cut cache: every cut link's cost at
/// (load + δ_i) is computed once after the communication's virtual spread
/// is removed, and each bound is a sum of windowed minima over those cached
/// values. ReferenceImprovedGreedyRouter (reference_routers.hpp) is the
/// seed's rescan loop it must match bit for bit.
class ImprovedGreedyRouter final : public Router {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "IG"; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model,
                                       RouteGoal goal) const override;
};

/// TB — two-bend (§5.3): evaluates every Manhattan path with at most two
/// bends (|Δu| + |Δv| of them) and keeps the cheapest.
class TwoBendRouter final : public Router {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "TB"; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model,
                                       RouteGoal goal) const override;
};

/// Test/diagnostic hook for the XYI routers: while attached, a router
/// appends the penalized LoadCost total after every applied move, so tests
/// can assert the descent is strictly decreasing. The measurement is
/// O(links) per move — leave unset outside tests.
struct XyiTrace {
  std::vector<double> penalized_totals;
};

/// XYI — XY improver (§5.4): local search from the XY routing, unloading
/// the most-loaded links via elementary staircase detours. The descent runs
/// on a CrossingIndex (link→crossing communications, plus one cached best
/// candidate per (link, member), reused while nothing it read changed) and
/// a LoadOrder (rank-keyed, merge-maintained hot-link order).
/// ReferenceXYImproverRouter (reference_routers.hpp) is the seed's loop it
/// must match bit for bit, including the stable-sort tie-break order and
/// the paper's preferred-side-first move priority (see xy_moves.hpp and
/// crossing_index.hpp).
class XYImproverRouter final : public Router {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "XYI"; }

  void set_trace(XyiTrace* trace) noexcept { trace_ = trace; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model,
                                       RouteGoal goal) const override;

 private:
  XyiTrace* trace_ = nullptr;
};

/// PR — path remover (§5.5): starts from the all-paths virtual spread and
/// deletes links from the most-loaded ones until each communication keeps a
/// single path. The removal loop runs on a LoadIndex (rank-keyed winner
/// tree + per-link membership lists): most-loaded link first with the
/// seed's stable-history tie-break (see load_index.hpp), heaviest
/// communication first with ties by original index.
/// ReferencePathRemoverRouter (reference_routers.hpp) is the seed's loop it
/// must match bit for bit.
class PathRemoverRouter final : public Router {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "PR"; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model,
                                       RouteGoal goal) const override;
};

/// BEST (§6): runs all six base policies, asking each for the verdict only
/// (RouteGoal::kVerdict), and returns the valid result with the lowest
/// power (elapsed time is the sum over all of them).
class BestRouter final : public Router {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "BEST"; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model,
                                       RouteGoal goal) const override;
};

}  // namespace pamr
