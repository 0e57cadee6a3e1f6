#include "pamr/routing/xy_moves.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "pamr/util/assert.hpp"
#include "pamr/util/log.hpp"

namespace pamr::xyi {

namespace {

bool step_is_vertical(std::span<const Coord> cores, std::size_t k) {
  return cores[k].v == cores[k + 1].v;
}

/// The nearest perpendicular step on each side of the hot step `i`: the
/// swap partners of the two candidate rotations.
struct CandidateBounds {
  bool has_prev = false;
  std::size_t prev = 0;
  bool has_next = false;
  std::size_t next = 0;
};

CandidateBounds candidate_bounds(std::span<const Coord> cores, std::size_t i,
                                 bool hot_vertical) {
  CandidateBounds bounds;
  std::size_t prev = i;
  while (prev > 0 && step_is_vertical(cores, prev - 1) == hot_vertical) --prev;
  bounds.prev = prev;
  bounds.has_prev = prev > 0 && step_is_vertical(cores, prev - 1) != hot_vertical;
  std::size_t next = i;
  while (next + 2 < cores.size() && step_is_vertical(cores, next + 1) == hot_vertical) {
    ++next;
  }
  bounds.next = next;
  bounds.has_next =
      next + 2 < cores.size() && step_is_vertical(cores, next + 1) != hot_vertical;
  return bounds;
}

/// Windowed evaluation of one candidate rotation: the rotated run is the
/// old run shifted by one unit step, so after[k] = before[k-1] + Δi
/// (forward) or before[k+1] - Δj (backward) for k in (j, i+1) — every
/// changed link is produced without materializing the candidate, and the
/// load terms accumulate in path_swap_delta's exact ascending-k order.
///
/// Per term, cost(load) of the *unrotated* side comes from `cost_now`
/// (maintained by the caller as exactly that value), and the links resolve
/// through the unchecked lookup — every window core of a monotone staircase
/// permutation stays inside the source/sink rectangle, so the full
/// adjacency checks can never fire. Neither shortcut changes a bit of the
/// accumulated delta. Both links of every costed step are appended to
/// `reads`: they are the only loads the delta depends on.
double candidate_delta(const Mesh& mesh, std::span<const Coord> cores,
                       std::span<const LinkId> links, std::size_t j, std::size_t i,
                       bool forward, double weight, const LinkLoads& loads,
                       const LoadCost& cost, std::span<const double> cost_now,
                       std::vector<LinkId>& reads) {
  const Coord dj{cores[j + 1].u - cores[j].u, cores[j + 1].v - cores[j].v};
  const Coord di{cores[i + 1].u - cores[i].u, cores[i + 1].v - cores[i].v};
  // Indexing the dense value span directly reads each changed link's load
  // once instead of four bounds-checked accessor calls per step.
  const std::span<const double> load_values = loads.values();
  double delta = 0.0;
  Coord after_k = cores[j];
  for (std::size_t k = j; k <= i; ++k) {
    const Coord after_k1 =
        k == i ? cores[i + 1]
               : (forward ? Coord{cores[k].u + di.u, cores[k].v + di.v}
                          : Coord{cores[k + 2].u - dj.u, cores[k + 2].v - dj.v});
    const LinkId removed = links[k];
    const LinkId added = mesh.link_between_unchecked(after_k, after_k1);
    if (removed != added) {
      reads.push_back(removed);
      reads.push_back(added);
      const double removed_load = load_values[static_cast<std::size_t>(removed)];
      const double added_load = load_values[static_cast<std::size_t>(added)];
      delta += cost(removed_load - weight) - cost_now[static_cast<std::size_t>(removed)];
      delta += cost(added_load + weight) - cost_now[static_cast<std::size_t>(added)];
    }
    after_k = after_k1;
  }
  return delta;
}

}  // namespace

PathStore::PathStore(const Mesh& mesh, const CommSet& comms) {
  Storage& s = *s_;
  s.link_begin.clear();
  s.link_begin.push_back(0);
  for (const Communication& comm : comms) {
    s.link_begin.push_back(s.link_begin.back() +
                           static_cast<std::size_t>(manhattan_distance(comm.src, comm.snk)));
  }
  s.cores.clear();
  s.cores.reserve(s.link_begin.back() + comms.size());
  s.links.clear();
  s.links.reserve(s.link_begin.back());
  for (const Communication& comm : comms) {
    // Horizontal first, then vertical: xy_path's links.
    Coord at = comm.src;
    s.cores.push_back(at);
    const auto advance = [&](Coord to) {
      s.links.push_back(mesh.link_between(at, to));
      s.cores.push_back(to);
      at = to;
    };
    const std::int32_t sv = sign_of(comm.snk.v - comm.src.v);
    while (at.v != comm.snk.v) advance({at.u, at.v + sv});
    const std::int32_t su = sign_of(comm.snk.u - comm.src.u);
    while (at.u != comm.snk.u) advance({at.u + su, at.v});
  }
  PAMR_ASSERT(s.links.size() == s.link_begin.back());
}

void rotate_block(std::span<const Coord> cores, std::size_t j, std::size_t i, bool forward,
                  std::span<Coord> out) {
  PAMR_ASSERT(out.size() == cores.size() && i + 1 < cores.size() && j <= i);
  // Steps are cores[k] -> cores[k+1]; rebuild the cores between j and i+1.
  std::copy(cores.begin(), cores.begin() + static_cast<std::ptrdiff_t>(j) + 1, out.begin());
  std::size_t at = j;
  auto apply_step = [&](std::size_t k) {
    const Coord delta{cores[k + 1].u - cores[k].u, cores[k + 1].v - cores[k].v};
    out[at + 1] = {out[at].u + delta.u, out[at].v + delta.v};
    ++at;
  };
  if (forward) {
    apply_step(i);
    for (std::size_t k = j; k < i; ++k) apply_step(k);
  } else {
    for (std::size_t k = j + 1; k <= i; ++k) apply_step(k);
    apply_step(j);
  }
  PAMR_ASSERT(at == i + 1);
  std::copy(cores.begin() + static_cast<std::ptrdiff_t>(i) + 2, cores.end(),
            out.begin() + static_cast<std::ptrdiff_t>(i) + 2);
}

double path_swap_delta(const Mesh& mesh, const std::vector<Coord>& before,
                       const std::vector<Coord>& after, double weight,
                       const LinkLoads& loads, const LoadCost& cost) {
  const std::span<const double> load_values = loads.values();
  double delta = 0.0;
  for (std::size_t k = 0; k + 1 < before.size(); ++k) {
    if (before[k] == after[k] && before[k + 1] == after[k + 1]) continue;
    const LinkId removed = mesh.link_between(before[k], before[k + 1]);
    const LinkId added = mesh.link_between(after[k], after[k + 1]);
    if (removed == added) continue;
    const double removed_load = load_values[static_cast<std::size_t>(removed)];
    const double added_load = load_values[static_cast<std::size_t>(added)];
    delta += cost.delta(removed_load, removed_load - weight);
    delta += cost.delta(added_load, added_load + weight);
  }
  return delta;
}

void consider_crossing(const Mesh& mesh, const LinkInfo& hot_info,
                       const std::vector<Coord>& cores, std::size_t ci, double weight,
                       const LinkLoads& loads, const LoadCost& cost, Move& best) {
  const std::size_t i = crossing_position(cores, hot_info);
  if (i == kNoCrossing) return;
  const bool hot_vertical = !hot_info.horizontal();

  auto consider = [&](std::size_t first, std::size_t last, bool forward) {
    std::vector<Coord> candidate(cores.size());
    rotate_block(cores, first, last, forward, candidate);
    const double delta = path_swap_delta(mesh, cores, candidate, weight, loads, cost);
    if (delta < best.delta) {
      best = Move{ci, std::move(candidate), delta};
    }
  };
  const CandidateBounds bounds = candidate_bounds(cores, i, hot_vertical);
  // Swapping with a preceding perpendicular step moves it to the end of the
  // block (forward=false) so the whole run shifts one lane toward the
  // source; a following step moves to the front (forward=true). The other
  // direction would recreate the hot link. Paper's preferred side first:
  // source side for vertical hot links, sink side for horizontal ones
  // (ties keep the first candidate).
  if (hot_vertical) {
    if (bounds.has_prev) consider(bounds.prev - 1, i, /*forward=*/false);
    if (bounds.has_next) consider(i, bounds.next + 1, /*forward=*/true);
  } else {
    if (bounds.has_next) consider(i, bounds.next + 1, /*forward=*/true);
    if (bounds.has_prev) consider(bounds.prev - 1, i, /*forward=*/false);
  }
}

std::size_t crossing_position(const std::vector<Coord>& cores, const LinkInfo& hot_info) {
  for (std::size_t i = 0; i + 1 < cores.size(); ++i) {
    if (cores[i] == hot_info.from && cores[i + 1] == hot_info.to) return i;
  }
  return kNoCrossing;
}

Candidate best_candidate(const Mesh& mesh, std::span<const Coord> cores,
                         std::span<const LinkId> links, std::size_t pos,
                         bool hot_vertical, double weight, const LinkLoads& loads,
                         const LoadCost& cost, std::span<const double> cost_now,
                         std::vector<LinkId>& reads) {
  Candidate best;
  auto consider = [&](std::size_t j, std::size_t i, bool forward) {
    const double delta = candidate_delta(mesh, cores, links, j, i, forward, weight, loads,
                                         cost, cost_now, reads);
    if (delta < best.delta) {
      best = Candidate{delta, static_cast<std::uint32_t>(j),
                       static_cast<std::uint32_t>(i), forward};
    }
  };
  // Same candidate set, order and strict-< tie-break as consider_crossing.
  const CandidateBounds bounds = candidate_bounds(cores, pos, hot_vertical);
  if (hot_vertical) {
    if (bounds.has_prev) consider(bounds.prev - 1, pos, /*forward=*/false);
    if (bounds.has_next) consider(pos, bounds.next + 1, /*forward=*/true);
  } else {
    if (bounds.has_next) consider(pos, bounds.next + 1, /*forward=*/true);
    if (bounds.has_prev) consider(bounds.prev - 1, pos, /*forward=*/false);
  }
  return best;
}

void materialize(std::span<const Coord> cores, const Candidate& cand, std::span<Coord> out) {
  PAMR_ASSERT(cand.delta < std::numeric_limits<double>::infinity());
  rotate_block(cores, cand.j, cand.i, cand.forward, out);
}

std::size_t move_cap(const Mesh& mesh, std::size_t num_comms) {
  const auto links = static_cast<std::size_t>(mesh.num_links());
  return std::max<std::size_t>(100000, links * std::max<std::size_t>(num_comms, 1));
}

void finish_search_stats(RouteResult& result, const Mesh& mesh, std::size_t num_comms,
                         std::size_t moves, std::size_t cap) {
  result.local_search.moves = moves;
  result.local_search.converged = moves < cap;
  if (!result.local_search.converged) {
    PAMR_LOG_WARN("XYI move cap " + std::to_string(cap) + " reached on " +
                  std::to_string(mesh.p()) + "x" + std::to_string(mesh.q()) +
                  " with " + std::to_string(num_comms) +
                  " communications — descent truncated, routing may be suboptimal");
  }
}

}  // namespace pamr::xyi
