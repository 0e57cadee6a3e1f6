// Dense per-link load accounting and the penalized cost function the
// heuristics minimize.
//
// The optimization objective of the paper is the total power given the
// per-link traffic (§3.4). While a heuristic is mid-construction the loads
// may temporarily exceed the link capacity (XYI starts from a possibly
// infeasible XY routing); LoadCost therefore extends the power curve past
// the capacity continuously and adds a steep linear penalty so that the
// local search is always pulled back towards feasibility. The *final*
// feasibility/power verdict is always taken from PowerModel on the finished
// routing, never from LoadCost.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "pamr/mesh/mesh.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/routing/infeasibility.hpp"
#include "pamr/routing/routing.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

class LinkLoads {
 public:
  explicit LinkLoads(const Mesh& mesh);
  /// Load vector over any link-id space of the given size — lets the
  /// accounting work for topo::Topology link graphs, whose ids are dense
  /// like the mesh's but differently sized.
  explicit LinkLoads(std::int32_t num_links);

  /// Defined inline: the heuristics' inner loops hit this on every load
  /// mutation, so the store must not cost a cross-TU call. A genuinely
  /// negative result (beyond float-cancellation noise) is an accounting
  /// bug in an incremental index that would otherwise silently read as
  /// zero load — it throws at *every* check level, not just debug.
  void add(LinkId link, double weight) {
    PAMR_DCHECK(link >= 0 && std::cmp_less(link, loads_.size()));
    double& slot = loads_[static_cast<std::size_t>(link)];
    slot += weight;
    if (slot < 0.0) {
      // Clamp tiny negative residue from remove-then-readd cancellation.
      PAMR_CHECK(slot > -1e-6,
                 "negative link load — incremental accounting bug");
      slot = 0.0;
    }
  }

  void add_path(const Path& path, double weight);
  void add_routing(const Routing& routing);

  [[nodiscard]] double load(LinkId link) const {
    PAMR_DCHECK(link >= 0 && std::cmp_less(link, loads_.size()));
    return loads_[static_cast<std::size_t>(link)];
  }
  [[nodiscard]] std::span<const double> values() const noexcept { return loads_; }
  [[nodiscard]] double max_load() const noexcept;

  void clear() noexcept;

 private:
  std::vector<double> loads_;
};

/// The weight a router has committed to each link, for the fail-fast of
/// RouteGoal::kVerdict (router.hpp). IG and PR keep it apart from their
/// working loads, which also carry virtual spreads that later fall off. An
/// inactive ledger allocates and records nothing.
class CommitLedger {
 public:
  CommitLedger(const Mesh& mesh, const PowerModel& model, bool active)
      : active_(active), limit_(model), committed_(active ? mesh.num_links() : 0) {}

  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Commits `weight` to `link`; true when the link is now certainly over
  /// capacity. Always false when inactive.
  [[nodiscard]] bool overloads(LinkId link, double weight) {
    if (!active_) return false;
    committed_.add(link, weight);
    return limit_.exceeded(committed_.load(link));
  }

 private:
  bool active_;
  OverloadLimit limit_;
  LinkLoads committed_;
};

/// Loads induced by a complete routing.
[[nodiscard]] LinkLoads loads_of_routing(const Mesh& mesh, const Routing& routing);

/// Heuristic link-cost oracle (see file comment).
class LoadCost {
 public:
  /// For a discrete model, memoizes the exact per-level link power (the
  /// cost is a step function with one value per frequency level), so the
  /// heuristics' innermost loops replace a quantize + std::pow per call
  /// with a scan over a handful of level edges. Values are computed through
  /// PowerModel::link_power itself — bit-identical to the unmemoized path.
  explicit LoadCost(const PowerModel& model);

  /// Cost of one link at `load`: the model's power when feasible, the
  /// continuous extension plus a steep overload penalty otherwise; 0 when
  /// idle.
  [[nodiscard]] double operator()(double load) const noexcept;

  /// Cost difference of moving one link from `before` to `after`.
  [[nodiscard]] double delta(double before, double after) const noexcept {
    return (*this)(after) - (*this)(before);
  }

  /// Total penalized cost of a load vector (never fails, unlike
  /// PowerModel::total_power).
  [[nodiscard]] double total(std::span<const double> loads) const noexcept;

 private:
  const PowerModel* model_;
  std::vector<double> level_edges_;  ///< discrete: level frequencies (inclusive tops)
  std::vector<double> level_costs_;  ///< exact link_power at each level
};

}  // namespace pamr
