// Router interface and registry for the paper's routing policies (§5/§6):
// XY, SG (simple greedy), IG (improved greedy), TB (two-bend), XYI (XY
// improver), PR (path remover), and the BEST meta-heuristic.
//
// By default (RouteGoal::kRouting) a router constructs a complete routing
// and the RouteResult records whether it is valid under the model (the
// paper's "failure" outcome is an infeasible or absent routing). A caller
// that only needs the verdict asks for RouteGoal::kVerdict: XY, SG, IG, TB
// and PR then stop at the first link whose committed weight is certainly
// over capacity and return a failure with no routing. Validity, power and
// breakdown are the same under both goals, and so is every valid routing.
// Power figures are only present for valid results.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pamr/comm/communication.hpp"
#include "pamr/mesh/mesh.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/routing/infeasibility.hpp"
#include "pamr/routing/routing.hpp"
#include "pamr/routing/validate.hpp"

namespace pamr {

class LinkLoads;

enum class RouterKind : std::uint8_t { kXY = 0, kSG, kIG, kTB, kXYI, kPR, kBest };

inline constexpr std::size_t kNumBaseRouters = 6;  // all but kBest

[[nodiscard]] const char* to_cstring(RouterKind kind) noexcept;

/// The six concrete policies, in the paper's presentation order.
[[nodiscard]] std::vector<RouterKind> all_base_routers();

/// What a caller needs from Router::route.
enum class RouteGoal : std::uint8_t {
  kRouting,  ///< the complete routing, valid or not
  kVerdict,  ///< validity and power only; a failure may come without a routing
};

/// Diagnostics of a move-based local search (XYI today; policies without
/// one keep the defaults). `converged == false` means the safety cap
/// truncated the descent — the routing is still structurally valid but may
/// be quietly worse than the fixed point, so callers must not read a capped
/// run as a converged one.
struct LocalSearchStats {
  std::size_t moves = 0;  ///< improving moves applied
  bool converged = true;  ///< false iff the move cap truncated the descent
};

struct RouteResult {
  /// The constructed routing, which may be invalid. Absent when BEST
  /// found no valid one, or when a RouteGoal::kVerdict call stopped at a
  /// certain overload (then `valid` is false).
  std::optional<Routing> routing;
  bool valid = false;              ///< feasibility under the model
  double power = 0.0;              ///< total power, defined iff valid
  PowerBreakdown breakdown;        ///< static/dynamic split, defined iff valid
  double elapsed_ms = 0.0;         ///< wall-clock construction time
  LocalSearchStats local_search;   ///< local-search diagnostics (XYI)

  /// The paper's plotted metric: 1/P for a valid routing, 0 on failure.
  [[nodiscard]] double inverse_power() const noexcept {
    return valid && power > 0.0 ? 1.0 / power : 0.0;
  }
};

/// The epilogue step every router shares, on the mesh or on a topology:
/// validity and power from the model on the routing's link loads, stamped
/// into a RouteResult that takes the routing. Callers check its structure
/// first.
[[nodiscard]] RouteResult evaluated_result(const PowerModel& model, Routing routing,
                                           const LinkLoads& loads, double elapsed_ms);

class Router {
 public:
  virtual ~Router() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Builds a routing for `comms` on `mesh` under `model`. Validates the
  /// communication set first (check_comm_set): malformed user input —
  /// non-finite or non-positive weights, out-of-bounds or coincident
  /// endpoints — throws std::logic_error before any heuristic work, for
  /// every policy. Implementations must be deterministic functions of
  /// their arguments. `goal` never changes `valid`, `power`, `breakdown`
  /// or a valid routing (see the file comment).
  [[nodiscard]] RouteResult route(const Mesh& mesh, const CommSet& comms,
                                  const PowerModel& model,
                                  RouteGoal goal = RouteGoal::kRouting) const;

 protected:
  /// Policy body; `comms` has already passed check_comm_set.
  [[nodiscard]] virtual RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                               const PowerModel& model,
                                               RouteGoal goal) const = 0;

  /// Shared epilogue: validates, evaluates power and stamps the result.
  [[nodiscard]] static RouteResult finish(const Mesh& mesh, const CommSet& comms,
                                          const PowerModel& model, Routing routing,
                                          double elapsed_ms);

  /// The same epilogue for a caller that already holds the routing's link
  /// loads, summed in loads_of_routing's order (one path per flow, in
  /// communication order), so power comes out bit-identical.
  [[nodiscard]] static RouteResult finish(const Mesh& mesh, const CommSet& comms,
                                          const PowerModel& model, Routing routing,
                                          const LinkLoads& loads, double elapsed_ms);

  /// The committed load above which a call stops: OverloadLimit(model)
  /// under RouteGoal::kVerdict, a limit nothing reaches otherwise.
  [[nodiscard]] static OverloadLimit stop_limit(const PowerModel& model,
                                                RouteGoal goal) noexcept;

  /// The result of a call stopped at a certain overload: a failure with no
  /// routing. Counts route.stopped_early.
  [[nodiscard]] static RouteResult stopped(double elapsed_ms);
};

[[nodiscard]] std::unique_ptr<Router> make_router(RouterKind kind);

}  // namespace pamr
