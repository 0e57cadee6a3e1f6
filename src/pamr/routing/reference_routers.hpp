// The seed loops of IG, XYI and PR, kept as the differential oracles of the
// incremental routers in routers.hpp. Each produces its policy class's
// routing bit for bit, under both route goals, by the straightforward
// rescans the paper describes. They are slow on purpose and only tests
// construct them, by name: no RouterKind, make_router or campaign path
// reaches them. Each reports its policy's name, so telemetry files a
// reference call under the same route phase.
#pragma once

#include "pamr/routing/routers.hpp"

namespace pamr {

/// IG's seed loop: every candidate rescans every cut of its sub-rectangle,
/// O(rectangle) cost() calls per candidate per hop.
class ReferenceImprovedGreedyRouter final : public Router {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "IG"; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model,
                                       RouteGoal goal) const override;
};

/// XYI's seed loop: a full stable_sort of every mesh link and a rescan of
/// every communication per move, with the cursor back at the top after
/// each applied move.
class ReferenceXYImproverRouter final : public Router {
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

/// PR's seed loop: every removal re-sorts all mesh links by load, rescans
/// every communication and cleans the cut-down DAG by a full reachability
/// sweep.
class ReferencePathRemoverRouter final : public Router {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "PR"; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model,
                                       RouteGoal goal) const override;
};

}  // namespace pamr
