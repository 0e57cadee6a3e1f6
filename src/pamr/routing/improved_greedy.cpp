// IG — improved greedy (paper §5.2).
//
// Phase 1: every communication is virtually pre-routed "as if all possible
// links between two diagonals could be used and if we could share each
// communication among all those links" (paper Figure 3): inside the
// communication's bounding rectangle, each diagonal cut receives δ_i spread
// uniformly over its links.
//
// Phase 2: communications are processed by decreasing weight. The current
// communication's pre-route contribution is removed from the loads and a
// concrete path is committed hop by hop. At a branching core the candidate
// link's figure of merit is a lower bound on the power to reach the sink
// through it: the candidate link's cost at (load + δ_i) plus, for every
// later cut of the sub-rectangle [candidate → sink], the cost of that cut's
// least-loaded link at (load + δ_i). (Unprocessed communications still sit
// on the links as their virtual spread, which is exactly what makes this
// "improved" over SG: the greedy choice anticipates future traffic.)
//
// Two routers share the spread/bound machinery below:
//
//   * ReferenceImprovedGreedyRouter (reference_routers.hpp) — the seed
//     loop: every candidate rescans every cut of its sub-rectangle,
//     O(rectangle) cost() calls per candidate per hop. Kept as the ground
//     truth for the differential suite.
//   * ImprovedGreedyRouter — a per-communication CutCache: after the
//     communication's own spread is removed, every cut link's cost at
//     (load + δ_i) is computed exactly once, and each bound becomes a sum
//     of windowed minima over those cached doubles. The cache stays exact
//     through the whole descent because the only load mutations are the
//     commits of links at depths the walk has already passed — and even
//     those slots are reloaded defensively. A sub-rectangle's cut at full
//     depth t is a contiguous row-offset window of the full rectangle's
//     cut (same cells, same step predicates, same vertical-then-horizontal
//     order), so the windowed min chain and the ascending-depth summation
//     replay the reference's arithmetic double for double.
//
// Under RouteGoal::kVerdict both stop at the first hop whose link's
// committed weight is certainly over capacity. The committed weights are
// kept apart from `loads` (CommitLedger), since `loads` also carries the
// spreads of communications not yet committed, which fall back off.
#include <limits>

#include "pamr/mesh/rectangle.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/reference_routers.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

namespace {

/// Adds (weight_sign × δ/|cut|) to every cut link of the rectangle —
/// the virtual pre-routing of Figure 3 and its removal.
void apply_virtual_spread(const CommRect& rect, double weight, LinkLoads& loads) {
  for (std::int32_t t = 0; t < rect.length(); ++t) {
    const std::int32_t size = rect.cut_size(t);
    PAMR_ASSERT(size > 0);
    const double share = weight / static_cast<double>(size);
    rect.visit_cut(t, [&](Coord, const CommRect::Step& step) { loads.add(step.link, share); });
  }
}

/// The bound scan itself, counter-free so the paranoid cross-check can
/// rerun it without inflating the work counters: per cut of [from → snk],
/// the cheapest link after adding the communication.
double scan_bound(const Mesh& mesh, Coord from, Coord snk, double weight,
                  const LinkLoads& loads, const LoadCost& cost) {
  const CommRect rest(mesh, from, snk);
  double bound = 0.0;
  for (std::int32_t t = 0; t < rest.length(); ++t) {
    double best = std::numeric_limits<double>::infinity();
    rest.visit_cut(t, [&](Coord, const CommRect::Step& step) {
      best = std::min(best, cost(loads.load(step.link) + weight));
    });
    bound += best;
  }
  return bound;
}

/// Lower bound on the cost of routing `weight` from `from` to `snk`, given
/// current loads. Matches the paper's "for each k … keep the least loaded
/// possible link between D_k and D_{k+1}". The counter is bumped after the
/// arrival early-out so it reports actual bound computations.
double remaining_bound(const Mesh& mesh, Coord from, Coord snk, double weight,
                       const LinkLoads& loads, const LoadCost& cost) {
  if (from == snk) return 0.0;
  obs::bump(obs::Metric::kIgCutBounds);
  return scan_bound(mesh, from, snk, weight, loads, cost);
}

/// Per-communication cut-min cache (ImprovedGreedyRouter; see file comment).
///
/// Layout: slots hold cost(load + δ_i) for every cut link of the full
/// rectangle, depth-major, cells by ascending row offset, vertical step
/// before horizontal per cell — exactly CommRect::visit_cut order. Per
/// depth, cell_start_ records each cell's first slot plus one sentinel, so
/// the sub-rectangle window [a_lo, a_hi] at full depth t is the contiguous
/// slot range [cell_start(t, a_lo), cell_start(t, a_hi + 1)).
class CutCache {
 public:
  explicit CutCache(std::int32_t num_links)
      : slot_of_link_(static_cast<std::size_t>(num_links), -1) {}

  /// Rebuilds for one communication; call after its spread was removed.
  void build(const CommRect& rect, double weight, const LinkLoads& loads,
             const LoadCost& cost) {
    for (const LinkId link : links_) slot_of_link_[static_cast<std::size_t>(link)] = -1;
    costs_.clear();
    links_.clear();
    cell_start_.clear();
    depth_base_.clear();
    rect_ = &rect;
    weight_ = weight;

    const Mesh& mesh = rect.mesh();
    const std::int32_t du = rect.du();
    const std::int32_t dv = rect.dv();
    auto push = [&](Coord from, Coord to) {
      const LinkId link = mesh.link_between(from, to);
      slot_of_link_[static_cast<std::size_t>(link)] =
          static_cast<std::int32_t>(costs_.size());
      links_.push_back(link);
      costs_.push_back(cost(loads.load(link) + weight_));
    };
    for (std::int32_t t = 0; t < rect.length(); ++t) {
      depth_base_.push_back(static_cast<std::int32_t>(cell_start_.size()));
      const std::int32_t a_lo = std::max<std::int32_t>(0, t - dv);
      const std::int32_t a_hi = std::min(du, t);
      for (std::int32_t a = a_lo; a <= a_hi; ++a) {
        cell_start_.push_back(static_cast<std::int32_t>(costs_.size()));
        const std::int32_t b = t - a;
        const Coord c = rect.cell(a, b);
        if (a < du) push(c, rect.cell(a + 1, b));
        if (b < dv) push(c, rect.cell(a, b + 1));
      }
      cell_start_.push_back(static_cast<std::int32_t>(costs_.size()));
    }
  }

  /// remaining_bound from the cache: same min chains over the same values
  /// in the same order, summed across depths in the same ascending order.
  [[nodiscard]] double bound_from(Coord from) const {
    std::int32_t a0 = 0;
    std::int32_t b0 = 0;
    const bool inside = rect_->cell_offsets(from, a0, b0);
    PAMR_DCHECK(inside);
    const std::int32_t du = rect_->du();
    const std::int32_t dv = rect_->dv();
    double bound = 0.0;
    for (std::int32_t t = a0 + b0; t < rect_->length(); ++t) {
      const std::int32_t a_lo_full = std::max<std::int32_t>(0, t - dv);
      const std::int32_t w_lo = std::max(a0, a_lo_full);
      const std::int32_t w_hi = std::min(du, t - b0);
      const std::int32_t base = depth_base_[static_cast<std::size_t>(t)];
      const std::int32_t begin =
          cell_start_[static_cast<std::size_t>(base + (w_lo - a_lo_full))];
      const std::int32_t end =
          cell_start_[static_cast<std::size_t>(base + (w_hi - a_lo_full + 1))];
      double best = std::numeric_limits<double>::infinity();
      for (std::int32_t s = begin; s < end; ++s) {
        best = std::min(best, costs_[static_cast<std::size_t>(s)]);
      }
      bound += best;
    }
    return bound;
  }

  /// Cached cost(load + δ_i) of one cut link — the candidate's own term.
  [[nodiscard]] double link_cost(LinkId link) const {
    const std::int32_t slot = slot_of_link_[static_cast<std::size_t>(link)];
    PAMR_DCHECK(slot >= 0);
    return costs_[static_cast<std::size_t>(slot)];
  }

  /// Recomputes one link's slot after its stored load changed (the commit
  /// of a hop). The committed link sits at a depth the descent has already
  /// passed, so no later window reads it — reloading keeps the cache's
  /// "keyed on the current load" contract literal anyway.
  void reload(LinkId link, const LinkLoads& loads, const LoadCost& cost) {
    const std::int32_t slot = slot_of_link_[static_cast<std::size_t>(link)];
    if (slot < 0) return;
    costs_[static_cast<std::size_t>(slot)] = cost(loads.load(link) + weight_);
  }

 private:
  const CommRect* rect_ = nullptr;
  double weight_ = 0.0;
  std::vector<double> costs_;
  std::vector<LinkId> links_;
  std::vector<std::int32_t> cell_start_;
  std::vector<std::int32_t> depth_base_;
  std::vector<std::int32_t> slot_of_link_;
};

}  // namespace

RouteResult ImprovedGreedyRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                             const PowerModel& model,
                                             RouteGoal goal) const {
  const WallTimer timer;
  const LoadCost cost(model);
  LinkLoads loads(mesh);
  CommitLedger ledger(mesh, model, goal == RouteGoal::kVerdict);
  std::vector<Path> paths(comms.size());

  // Phase 1: virtual pre-routing of everything.
  std::vector<CommRect> rects;
  rects.reserve(comms.size());
  for (const Communication& comm : comms) {
    rects.emplace_back(mesh, comm.src, comm.snk);
    apply_virtual_spread(rects.back(), comm.weight, loads);
  }

  // Phase 2: commit concrete routes, heaviest first.
  CutCache cache(mesh.num_links());
  for (const std::size_t index : order_by_decreasing_weight(comms)) {
    const Communication& comm = comms[index];
    const CommRect& rect = rects[index];
    apply_virtual_spread(rect, -comm.weight, loads);
    cache.build(rect, comm.weight, loads, cost);

    Path& path = paths[index];
    path.src = comm.src;
    path.snk = comm.snk;
    path.links.reserve(static_cast<std::size_t>(rect.length()));
    Coord at = comm.src;
    while (at != comm.snk) {
      const auto steps = rect.next_steps(at);
      PAMR_ASSERT(!steps.empty());
      const CommRect::Step* chosen = &steps.front();
      if (steps.size() == 2) {
        double best_bound = std::numeric_limits<double>::infinity();
        for (const auto& step : steps) {
          double rest = 0.0;
          if (step.to != comm.snk) {
            obs::bump(obs::Metric::kIgCutBounds);
            rest = cache.bound_from(step.to);
          }
          const double bound = cache.link_cost(step.link) + rest;
#if PAMR_CHECK_LEVEL >= 2
          const double fresh =
              cost(loads.load(step.link) + comm.weight) +
              (step.to == comm.snk
                   ? 0.0
                   : scan_bound(mesh, step.to, comm.snk, comm.weight, loads, cost));
          PAMR_INVARIANT_ALWAYS("ig-cut-cache", bound == fresh,
                                "cached IG bound diverged from a fresh rescan");
#endif
          // Strict '<' keeps the vertical-first preference on exact ties.
          if (bound < best_bound) {
            best_bound = bound;
            chosen = &step;
          }
        }
      }
      loads.add(chosen->link, comm.weight);
      if (ledger.overloads(chosen->link, comm.weight)) return stopped(timer.elapsed_ms());
      cache.reload(chosen->link, loads, cost);
      path.links.push_back(chosen->link);
      at = chosen->to;
    }
  }

  return finish(mesh, comms, model, make_single_path_routing(comms, std::move(paths)),
                timer.elapsed_ms());
}

RouteResult ReferenceImprovedGreedyRouter::route_impl(const Mesh& mesh,
                                                      const CommSet& comms,
                                                      const PowerModel& model,
                                                      RouteGoal goal) const {
  const WallTimer timer;
  const LoadCost cost(model);
  LinkLoads loads(mesh);
  CommitLedger ledger(mesh, model, goal == RouteGoal::kVerdict);
  std::vector<Path> paths(comms.size());

  // Phase 1: virtual pre-routing of everything.
  std::vector<CommRect> rects;
  rects.reserve(comms.size());
  for (const Communication& comm : comms) {
    rects.emplace_back(mesh, comm.src, comm.snk);
    apply_virtual_spread(rects.back(), comm.weight, loads);
  }

  // Phase 2: commit concrete routes, heaviest first.
  for (const std::size_t index : order_by_decreasing_weight(comms)) {
    const Communication& comm = comms[index];
    const CommRect& rect = rects[index];
    apply_virtual_spread(rect, -comm.weight, loads);

    Path& path = paths[index];
    path.src = comm.src;
    path.snk = comm.snk;
    path.links.reserve(static_cast<std::size_t>(rect.length()));
    Coord at = comm.src;
    while (at != comm.snk) {
      const auto steps = rect.next_steps(at);
      PAMR_ASSERT(!steps.empty());
      const CommRect::Step* chosen = &steps.front();
      if (steps.size() == 2) {
        double best_bound = std::numeric_limits<double>::infinity();
        for (const auto& step : steps) {
          const double bound =
              cost(loads.load(step.link) + comm.weight) +
              remaining_bound(mesh, step.to, comm.snk, comm.weight, loads, cost);
          // Strict '<' keeps the vertical-first preference on exact ties.
          if (bound < best_bound) {
            best_bound = bound;
            chosen = &step;
          }
        }
      }
      loads.add(chosen->link, comm.weight);
      if (ledger.overloads(chosen->link, comm.weight)) return stopped(timer.elapsed_ms());
      path.links.push_back(chosen->link);
      at = chosen->to;
    }
  }

  return finish(mesh, comms, model, make_single_path_routing(comms, std::move(paths)),
                timer.elapsed_ms());
}

}  // namespace pamr
