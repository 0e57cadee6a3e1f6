// PR — path remover (paper §5.5).
//
// Every communication starts with its full Manhattan path DAG (all links of
// its bounding rectangle) carrying the Figure-3 virtual spread: δ_i/m_t on
// each of the m_t allowed links of diagonal cut t. Then, repeatedly:
//
//   * take the most loaded link;
//   * among the communications still using it (heaviest first), remove the
//     link from the first one whose cut keeps ≥ 2 links — in the monotone
//     rectangle DAG this can never disconnect the source from the sink,
//     which is the paper's "unless this removal would break its last
//     remaining path" rule;
//   * prune links that no longer lie on any surviving src→snk path (the
//     paper's "path cleaning" examples are exactly the fixed point of this
//     forward/backward reachability prune) and re-spread the load.
//
// The process stops when every communication retains a single path. Each
// removal strictly shrinks the union of allowed links, so termination is
// structural.
//
// Two implementations share the CommState machinery below:
//
//   * route_reference — the seed loop: every removal re-sorts all mesh
//     links by load and rescans every communication, O(L log L + nc) per
//     removal. Kept (selectable via Mode::kReference) as the ground truth
//     for differential tests.
//   * route_incremental (default) — answers "most loaded link, heaviest
//     communication using it" from a LoadIndex: a winner tree over the
//     links keyed by (load, rank), whose rank encodes the seed's stable
//     re-sort and is updated, with the tree, only for the links whose
//     stored load actually changed (O(K log L) per removal), plus per-link
//     heaviest-first membership lists. Links whose scan finds no removable
//     member are retired permanently — their leaf is emptied: every
//     surviving member holds them in a singleton cut, cuts only shrink,
//     and membership only dies, so such a link can never yield a removal
//     again.
//
// Both clean up after a removal with the same full reachability sweep
// (CommState::prune). Both order removals identically — most-loaded link
// first with the seed's stable-history tie-break (see load_index.hpp),
// heaviest communication first with ties by original index — and keep the
// load array bit-identical at every decision point (see
// apply_spread_tracked), so the routings they produce are bit-identical.
#include <algorithm>
#include <numeric>

#include "pamr/mesh/rectangle.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/load_index.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

namespace {

/// Reusable reachability buffers for CommState::prune: cells are marked
/// with the current epoch instead of re-allocating (and re-zeroing) two
/// per-core vectors on every removal, as the seed did.
struct PruneScratch {
  std::vector<std::uint64_t> forward;
  std::vector<std::uint64_t> backward;
  std::uint64_t epoch = 0;

  explicit PruneScratch(std::size_t num_cores)
      : forward(num_cores, 0), backward(num_cores, 0) {}
};

/// Per-communication path-DAG state.
struct CommState {
  CommRect rect;
  std::vector<char> allowed;             ///< indexed by LinkId, 1 = usable
  std::vector<std::vector<LinkId>> cuts; ///< allowed links per depth t

  CommState(const Mesh& mesh, const Communication& comm)
      : rect(mesh, comm.src, comm.snk),
        allowed(static_cast<std::size_t>(mesh.num_links()), 0) {
    cuts.resize(static_cast<std::size_t>(rect.length()));
    for (std::int32_t t = 0; t < rect.length(); ++t) {
      cuts[static_cast<std::size_t>(t)] = rect.cut_links(t);
      for (const LinkId link : cuts[static_cast<std::size_t>(t)]) {
        allowed[static_cast<std::size_t>(link)] = 1;
      }
    }
  }

  [[nodiscard]] bool is_single_path() const noexcept {
    for (const auto& cut : cuts) {
      if (cut.size() != 1) return false;
    }
    return true;
  }

  /// Adds (sign × δ/m_t) for every allowed link of every cut.
  void apply_spread(double weight, LinkLoads& loads) const {
    for (const auto& cut : cuts) {
      PAMR_ASSERT(!cut.empty());
      const double share = weight / static_cast<double>(cut.size());
      for (const LinkId link : cut) loads.add(link, share);
    }
  }

  /// apply_spread plus first-touch snapshots into `log`. The arithmetic —
  /// cut iteration order, shares, signs — is exactly apply_spread's: the
  /// incremental mode must reproduce the reference's floating-point state
  /// bit for bit (IEEE addition is not associative, so even an unchanged
  /// cut's -share/+share round trip can perturb a stored load by an ulp,
  /// and the reference's next sort sees the perturbed value).
  void apply_spread_tracked(double weight, LinkLoads& loads, TouchLog& log) const {
    for (const auto& cut : cuts) {
      PAMR_ASSERT(!cut.empty());
      const double share = weight / static_cast<double>(cut.size());
      for (const LinkId link : cut) {
        log.record(link, loads.load(link));
        loads.add(link, share);
      }
    }
  }

  /// Rebuilds `cuts` from `allowed`, dropping links that are not on any
  /// surviving src→snk path (forward ∩ backward reachability over depths).
  void prune(const Mesh& mesh, PruneScratch& scratch) {
    const std::int32_t len = rect.length();
    if (len == 0) return;
    const std::uint64_t epoch = ++scratch.epoch;
    // Reachability per cell, keyed by depth-local enumeration.
    auto cell_key = [&](Coord c) {
      return static_cast<std::size_t>(mesh.core_index(c));
    };
    scratch.forward[cell_key(rect.src())] = epoch;
    for (std::int32_t t = 0; t < len; ++t) {
      for (const LinkId link : cuts[static_cast<std::size_t>(t)]) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.forward[cell_key(info.from)] == epoch) {
          scratch.forward[cell_key(info.to)] = epoch;
        }
      }
    }
    scratch.backward[cell_key(rect.snk())] = epoch;
    for (std::int32_t t = len - 1; t >= 0; --t) {
      for (const LinkId link : cuts[static_cast<std::size_t>(t)]) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.backward[cell_key(info.to)] == epoch) {
          scratch.backward[cell_key(info.from)] = epoch;
        }
      }
    }
    for (auto& cut : cuts) {
      std::erase_if(cut, [&](LinkId link) {
        const LinkInfo& info = mesh.link(link);
        const bool alive = allowed[static_cast<std::size_t>(link)] != 0 &&
                           scratch.forward[cell_key(info.from)] == epoch &&
                           scratch.backward[cell_key(info.to)] == epoch;
        if (!alive) allowed[static_cast<std::size_t>(link)] = 0;
        return !alive;
      });
      PAMR_ASSERT_MSG(!cut.empty(), "prune emptied a cut — connectivity broken");
    }
  }

  /// Extracts the unique remaining path once single-path.
  [[nodiscard]] Path extract_path(const Mesh& mesh) const {
    Path path;
    path.src = rect.src();
    path.snk = rect.snk();
    path.links.reserve(cuts.size());
    Coord at = rect.src();
    for (const auto& cut : cuts) {
      PAMR_ASSERT(cut.size() == 1);
      const LinkInfo& info = mesh.link(cut.front());
      PAMR_ASSERT(info.from == at);
      path.links.push_back(cut.front());
      at = info.to;
    }
    PAMR_ASSERT(at == rect.snk());
    return path;
  }
};

/// Builds the initial per-communication spread states onto `loads`.
std::vector<CommState> make_states(const Mesh& mesh, const CommSet& comms,
                                   LinkLoads& loads) {
  std::vector<CommState> states;
  states.reserve(comms.size());
  for (const Communication& comm : comms) {
    states.emplace_back(mesh, comm);
    states.back().apply_spread(comm.weight, loads);
  }
  return states;
}

std::size_t count_multi_path(const std::vector<CommState>& states) {
  std::size_t active = 0;
  for (const auto& state : states) {
    if (!state.is_single_path()) ++active;
  }
  return active;
}

std::vector<Path> extract_paths(const Mesh& mesh,
                                const std::vector<CommState>& states) {
  std::vector<Path> paths;
  paths.reserve(states.size());
  for (const auto& state : states) paths.push_back(state.extract_path(mesh));
  return paths;
}

}  // namespace

RouteResult PathRemoverRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                          const PowerModel& model) const {
  return mode_ == Mode::kReference ? route_reference(mesh, comms, model)
                                   : route_incremental(mesh, comms, model);
}

RouteResult PathRemoverRouter::route_incremental(const Mesh& mesh,
                                                 const CommSet& comms,
                                                 const PowerModel& model) const {
  const WallTimer timer;
  LinkLoads loads(mesh);
  std::vector<CommState> states = make_states(mesh, comms, loads);

  // Heaviest-first candidate order within a link (paper: "the largest
  // communication that uses this link"): member lists are filled in
  // by_weight order, so each list stays heaviest-first under compaction.
  const std::vector<std::size_t> by_weight = order_by_decreasing_weight(comms);

  LoadIndex index(mesh.num_links(), loads);
  for (const std::size_t idx : by_weight) {
    for (const auto& cut : states[idx].cuts) {
      for (const LinkId link : cut) {
        index.add_member(link, static_cast<std::uint32_t>(idx));
      }
    }
  }

  std::size_t active = count_multi_path(states);
  PruneScratch scratch(static_cast<std::size_t>(mesh.num_cores()));
  TouchLog log(static_cast<std::size_t>(mesh.num_links()));
  std::size_t removals = 0;

  const std::size_t none = states.size();
  while (active > 0) {
    // Selection: take live links in (load desc, rank asc) order; the first
    // one with a member whose cut keeps ≥ 2 links is exactly the
    // reference's choice.
    LinkId link = kInvalidLink;
    std::size_t chosen = none;
    std::int32_t depth = -1;
    for (LinkId cand = index.top(); cand != kInvalidLink; cand = index.top()) {
      if (loads.load(cand) <= 0.0) break;  // same early break as the reference
      const Coord tail = mesh.link(cand).from;
      auto& members = index.members(cand);
      std::size_t keep = 0;
      for (const std::uint32_t idx : members) {
        CommState& state = states[idx];
        if (state.allowed[static_cast<std::size_t>(cand)] == 0) continue;  // compact away
        members[keep++] = idx;
        if (chosen != none) continue;  // found earlier; just finish compacting
        const std::int32_t t = state.rect.depth(tail);
        PAMR_ASSERT(t >= 0);
        if (state.cuts[static_cast<std::size_t>(t)].size() >= 2) {
          chosen = idx;
          depth = t;
        }
      }
      members.resize(keep);
      if (chosen != none) {
        link = cand;
        break;
      }
      // Every surviving member holds this link in a singleton cut, so it
      // can never be removed from anyone again: retire it instead of
      // rescanning it every round as the reference does (its position in
      // the order can no longer influence any decision).
      index.retire(cand);
    }
    PAMR_ASSERT_MSG(link != kInvalidLink,
                    "no removable link found while communications remain multi-path");

    CommState& state = states[chosen];
    const double weight = comms[chosen].weight;
    state.apply_spread_tracked(-weight, loads, log);
    state.allowed[static_cast<std::size_t>(link)] = 0;
    std::erase(state.cuts[static_cast<std::size_t>(depth)], link);
    state.prune(mesh, scratch);
    state.apply_spread_tracked(weight, loads, log);
    index.reorder(log, loads);
    log.clear();
    ++removals;
    obs::bump(obs::Metric::kPrRemovals);
    if (state.is_single_path()) --active;
  }

  obs::sample(obs::Metric::kPrRemovalsPerCall, removals);
  return finish(mesh, comms, model,
                make_single_path_routing(comms, extract_paths(mesh, states)),
                timer.elapsed_ms());
}

RouteResult PathRemoverRouter::route_reference(const Mesh& mesh, const CommSet& comms,
                                               const PowerModel& model) const {
  const WallTimer timer;
  LinkLoads loads(mesh);
  std::vector<CommState> states = make_states(mesh, comms, loads);

  // Heaviest-first candidate order within a link (paper: "the largest
  // communication that uses this link").
  const std::vector<std::size_t> by_weight = order_by_decreasing_weight(comms);

  std::vector<LinkId> order(static_cast<std::size_t>(mesh.num_links()));
  std::iota(order.begin(), order.end(), LinkId{0});

  std::size_t active = count_multi_path(states);
  PruneScratch scratch(static_cast<std::size_t>(mesh.num_cores()));
  std::size_t removals = 0;

  while (active > 0) {
    std::stable_sort(order.begin(), order.end(), [&loads](LinkId a, LinkId b) {
      return loads.load(a) > loads.load(b);
    });

    bool removed = false;
    for (const LinkId link : order) {
      if (loads.load(link) <= 0.0) break;
      for (const std::size_t index : by_weight) {
        CommState& state = states[index];
        if (state.allowed[static_cast<std::size_t>(link)] == 0) continue;
        // Find the cut containing this link; removable iff it keeps ≥ 2
        // links (see file comment: in the monotone DAG this preserves
        // src→snk connectivity).
        const std::int32_t t = [&] {
          const LinkInfo& info = mesh.link(link);
          return state.rect.depth(info.from);
        }();
        PAMR_ASSERT(t >= 0);
        auto& cut = state.cuts[static_cast<std::size_t>(t)];
        if (cut.size() < 2) continue;

        state.apply_spread(-comms[index].weight, loads);
        state.allowed[static_cast<std::size_t>(link)] = 0;
        std::erase(cut, link);
        state.prune(mesh, scratch);
        state.apply_spread(comms[index].weight, loads);
        ++removals;
        obs::bump(obs::Metric::kPrRemovals);
        if (state.is_single_path()) --active;
        removed = true;
        break;
      }
      if (removed) break;
    }
    PAMR_ASSERT_MSG(removed,
                    "no removable link found while communications remain multi-path");
  }

  obs::sample(obs::Metric::kPrRemovalsPerCall, removals);
  return finish(mesh, comms, model,
                make_single_path_routing(comms, extract_paths(mesh, states)),
                timer.elapsed_ms());
}

}  // namespace pamr
