// XYI — the incremental descent of XYImproverRouter.
//
// The reference loop (xy_improver.cpp) pays three scans per round: a
// stable_sort of every mesh link to find the hot one, a scan of every
// communication's full path to find the crossings, and — because the cursor
// restarts at 0 after every applied move — a re-evaluation of every
// hot-prefix link that was already known to have no improving move. This
// file removes all three without changing a single decision:
//
//   * hot-link order: a LoadOrder, the materialized (load desc, rank asc)
//     order, in which only the links whose stored load actually changed
//     under a move are re-ranked and moved, in place. The seed's stable_sort of
//     a persistent order vector makes the tie-break history-dependent; the
//     per-link rank shared with PR's LoadIndex reproduces it bit for bit
//     (see load_index.hpp). The walk restarts at the top after every move
//     and goes only a few dozen links deep, so a sorted array serves it
//     better than PR's winner tree.
//   * crossings: a CrossingIndex maps each link to the communications whose
//     current path crosses it, in ascending order — the reference's scan
//     order — and is patched per move from the rewritten window only.
//   * dirty-move memoization: each member's best candidate rotation is
//     cached per (link, member) slot with the links its evaluation read,
//     and reused while the member's path was not rewritten and none of
//     those links changed load. That makes the cache exact, not heuristic —
//     see crossing_index.hpp for the argument. The windowed evaluation
//     itself is xy_moves.hpp's best_candidate, pinned against the seed
//     arithmetic by the differential suite.
//
// Load arithmetic follows the reference exactly: a move subtracts the
// weight from every old-path link and adds it to every new-path link, so
// shared links take the same -w/+w round trip (which can shift a stored
// double by an ulp) and the next reorder sees the same bits in both routers.
// The per-link `cost_now` table (exactly cost(load(link)), refreshed for
// the links a move changed) is transparent for the same reason: it holds
// the very double a cold evaluation computes.
//
// Every buffer of a call — the indexes', the path slices', and the loads,
// `cost_now` and touch log below — is a per-thread Reused spare
// (util/reused.hpp), refilled from scratch on each call. So in steady
// state a call allocates only the Routing it returns.
#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "pamr/obs/obs.hpp"
#include "pamr/routing/crossing_index.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/load_index.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/routing/xy_moves.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/reused.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

namespace {

/// A call's working buffers beside its indexes.
struct Buffers {
  LinkLoads loads{std::int32_t{0}};
  std::vector<double> cost_now;  ///< link → cost(load), see the file comment
  TouchLog log{0};
  std::vector<Coord> old_cores;  ///< the moved path before its rewrite
};

#if PAMR_CHECK_LEVEL >= 2

/// Paranoid cross-check helper: bit-equality of candidates (+inf included;
/// any ulp drift in a reused cache is a bug, not noise).
bool same_candidate(const xyi::Candidate& a, const xyi::Candidate& b) {
  return std::bit_cast<std::uint64_t>(a.delta) == std::bit_cast<std::uint64_t>(b.delta) &&
         a.j == b.j && a.i == b.i && a.forward == b.forward;
}
#endif

}  // namespace

// Like the reference, XYI never stops early (see xy_improver.cpp).
RouteResult XYImproverRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                         const PowerModel& model, RouteGoal) const {
  const WallTimer timer;
  const LoadCost cost(model);

  // Cores and link ids of every current path in flat per-comm slices; the
  // window walks read the removed-side link id instead of resolving it.
  xyi::PathStore paths(mesh, comms);
  Reused<Buffers> buffers;
  const auto num_links = static_cast<std::size_t>(mesh.num_links());
  LinkLoads& loads = buffers->loads;
  if (loads.values().size() == num_links) {
    loads.clear();
  } else {
    loads = LinkLoads(mesh);
  }
  for (std::size_t ci = 0; ci < comms.size(); ++ci) {
    for (const LinkId link : paths.links(ci)) loads.add(link, comms[ci].weight);
  }

  // == the reference's first resort(): identity order stably sorted by the
  // initial loads.
  LoadOrder index(mesh.num_links(), loads);
  CrossingIndex crossings(mesh, paths);

  // cost(load) of every link at its current load — the unrotated side of
  // every delta term in the windowed evaluation (see xy_moves.hpp).
  std::vector<double>& cost_now = buffers->cost_now;
  cost_now.resize(num_links);
  for (std::size_t l = 0; l < num_links; ++l) {
    cost_now[l] = cost(loads.load(static_cast<LinkId>(l)));
  }

  const std::size_t cap = xyi::move_cap(mesh, comms.size());
  std::size_t moves = 0;
  TouchLog& log = buffers->log;
  if (log.seen.size() == num_links) {
    log.clear();  // a call that threw may have left marks
  } else {
    log = TouchLog(num_links);
  }
  std::vector<Coord>& old_cores = buffers->old_cores;

  // Counter totals, bumped in bulk after the descent: two obs calls per
  // route instead of one per member-scan iteration (tens of millions on an
  // overloaded 32×32 instance).
  std::uint64_t n_hits = 0;
  std::uint64_t n_misses = 0;

  // One member's best candidate rotation across the hot link, evaluated
  // from the current paths and loads; the links it read go to `reads`.
  const auto evaluate = [&](const LinkInfo& hot_info, std::uint32_t ci,
                            std::vector<LinkId>& reads) {
    const std::span<const Coord> cores = paths.cores(ci);
    return xyi::best_candidate(mesh, cores, paths.links(ci),
                               xyi::known_crossing_position(cores, hot_info),
                               !hot_info.horizontal(), comms[ci].weight, loads, cost,
                               cost_now, reads);
  };
#if PAMR_CHECK_LEVEL >= 2
  std::vector<LinkId> check_reads;
#endif

  std::size_t at = 0;
  while (at < index.size() && moves < cap) {
    const LinkId hot = index.link_at(at);
    if (loads.load(hot) <= 0.0) break;  // remaining links are idle
    const LinkInfo& hot_info = mesh.link(hot);

    // Ascending-member scan with strict < — the reference's order and
    // tie-break — reusing fresh slots and recomputing stale ones.
    xyi::Candidate best;
    std::size_t best_comm = comms.size();
    for (CrossingIndex::Entry& entry : crossings.entries(hot)) {
      const std::uint32_t ci = entry.comm;
      CrossingIndex::Slot& slot = entry.slot;
      if (crossings.slot_fresh(slot, ci)) {
        ++n_hits;
#if PAMR_CHECK_LEVEL >= 2
        // Paranoid: a reused slot must match a from-scratch evaluation bit
        // for bit, and that evaluation must read the links it recorded.
        check_reads.clear();
        const xyi::Candidate fresh = evaluate(hot_info, ci, check_reads);
        const std::span<const LinkId> recorded = crossings.reads(slot);
        PAMR_INVARIANT("xyi-slot-cache",
                       same_candidate(fresh, slot.best) &&
                           std::equal(check_reads.begin(), check_reads.end(),
                                      recorded.begin(), recorded.end()),
                       "cached candidate diverged from a fresh evaluation");
#endif
      } else {
        ++n_misses;
        crossings.refresh(slot, [&](std::vector<LinkId>& reads) {
          return evaluate(hot_info, ci, reads);
        });
      }
      if (slot.best.delta < best.delta) {
        best = slot.best;
        best_comm = ci;
      }
    }

    if (best.delta < -xyi::kImproveEps) {
      const std::span<Coord> cores = paths.cores(best_comm);
      const std::span<LinkId> links = paths.links(best_comm);
      old_cores.assign(cores.begin(), cores.end());
      xyi::materialize(old_cores, best, cores);
      const double weight = comms[best_comm].weight;
      for (const LinkId link : links) {
        log.record(link, loads.load(link));
        loads.add(link, -weight);
      }
      for (std::size_t k = 0; k < links.size(); ++k) {
        const LinkId link = mesh.link_between(cores[k], cores[k + 1]);
        links[k] = link;
        log.record(link, loads.load(link));
        loads.add(link, weight);
      }
      ++moves;
      obs::bump(obs::Metric::kXyiMoves);
      crossings.apply_rewrite(static_cast<std::uint32_t>(best_comm), old_cores, cores);
      for (const LinkId link : index.reorder(log.changes, loads)) {
        crossings.note_load_change(link);
        cost_now[static_cast<std::size_t>(link)] = cost(loads.load(link));
      }
      log.clear();
      if (trace_ != nullptr) {
        trace_->penalized_totals.push_back(cost.total(loads.values()));
      }
      at = 0;
    } else {
      ++at;
    }
  }

  obs::bump(obs::Metric::kXyiEvalHits, n_hits);
  obs::bump(obs::Metric::kXyiEvalMisses, n_misses);
  std::vector<Path> final_paths;
  final_paths.reserve(comms.size());
  for (std::size_t ci = 0; ci < comms.size(); ++ci) {
    const std::span<const LinkId> links = paths.links(ci);
    final_paths.push_back(Path{comms[ci].src, comms[ci].snk, {links.begin(), links.end()}});
  }
  obs::sample(obs::Metric::kXyiMovesPerCall, moves);
  RouteResult result = finish(mesh, comms, model,
                              make_single_path_routing(comms, std::move(final_paths)),
                              timer.elapsed_ms());
  xyi::finish_search_stats(result, mesh, comms.size(), moves, cap);
  return result;
}

}  // namespace pamr
