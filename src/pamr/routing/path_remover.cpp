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
// Two routers share the CommStates machinery below:
//
//   * ReferencePathRemoverRouter (reference_routers.hpp) — the seed loop:
//     every removal re-sorts all mesh links by load and rescans every
//     communication, O(L log L + nc) per removal. Kept as the ground truth
//     for differential tests.
//   * PathRemoverRouter — answers "most loaded link, heaviest
//     communication using it" from a LoadIndex: a winner tree over the
//     links keyed by (load, rank), whose rank encodes the seed's stable
//     re-sort and is updated, with the tree, only for the links whose
//     stored load actually changed (O(K log L) per removal), plus per-link
//     heaviest-first membership lists (MemberLists, one CSR array). Links
//     whose scan finds no removable member are retired permanently — their
//     leaf is emptied: every surviving member holds them in a singleton
//     cut, cuts only shrink, and membership only dies, so such a link can
//     never yield a removal again.
//
// They clean up after a removal differently. The reference takes the
// communication's spread off, runs a full forward/backward reachability
// sweep (CommStates::prune) and spreads it back. The incremental router
// drops dead links by a degree-count cascade from the removed link
// (CommStates::remove_cascading), which reaches the same fixed point, and
// re-spreads in one pass that does each link's -old/+new share additions
// in the reference's order and reports only the loads that changed
// (CommStates::respread). Both order removals identically — most-loaded
// link first with the seed's stable-history tie-break (see
// load_index.hpp), heaviest communication first with ties by original
// index — and keep the load array bit-identical at every decision point,
// so the routings they produce are bit-identical.
//
// Under RouteGoal::kVerdict a communication counts as committed to a link
// once its cut holding that link is down to one link: cuts only shrink and
// never empty, so the link stays on its final path. Straight-line
// communications start that way. After each removal, both routers commit
// the cuts it shrank to one link, in depth order (the incremental router
// inside respread()), and stop once a link's committed weight is certainly
// over capacity; the same removals in the same order make them stop at the
// same removal.
#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "pamr/mesh/rectangle.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/load_index.hpp"
#include "pamr/routing/reference_routers.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/reused.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

namespace {

/// Reusable reachability buffers for CommStates::prune (the reference router
/// and the incremental router's paranoid cascade check): cells are marked
/// with the current epoch instead of re-allocating (and re-zeroing) two
/// per-core vectors on every removal, as the seed did.
struct PruneScratch {
  std::vector<std::uint64_t> forward;
  std::vector<std::uint64_t> backward;
  std::uint64_t epoch = 0;

  explicit PruneScratch(std::size_t num_cores)
      : forward(num_cores, 0), backward(num_cores, 0) {}
};

/// Every communication's path-DAG state, in flat stores shared by both
/// routers. Communication i's cuts are consecutive (begin, size) ranges of
/// one link store, one per depth t; a cut only ever shrinks in place,
/// keeping the order of its survivors (cells by ascending row offset,
/// vertical step first — CommRect::visit_cut order). `allowed` is one
/// nc × L byte array.
/// The incremental router also keeps each cell's in- and out-degree within
/// its communication's DAG, one flat array with communication i's cell
/// (a, b) at cell_base[i] + a·(dv+1) + b. The stores are a per-thread
/// Reused spare (util/reused.hpp), refilled on every call, as are the
/// member lists below.
class CommStates {
 public:
  CommStates(const Mesh& mesh, const CommSet& comms)
      : num_links_(static_cast<std::size_t>(mesh.num_links())) {
    Storage& s = *s_;
    s.rects.clear();
    s.depth_base.clear();
    s.cuts.clear();
    s.links.clear();
    s.allowed.assign(comms.size() * num_links_, 0);
    s.cell_base.clear();
    s.degrees.clear();
    s.rects.reserve(comms.size());
    s.depth_base.reserve(comms.size() + 1);
    s.cell_base.reserve(comms.size());
    std::size_t max_length = 0;
    std::size_t max_cells = 0;
    for (std::size_t i = 0; i < comms.size(); ++i) {
      const CommRect& rect = s.rects.emplace_back(mesh, comms[i].src, comms[i].snk);
      s.depth_base.push_back(s.cuts.size());
      max_length = std::max(max_length, static_cast<std::size_t>(rect.length()));
      max_cells = std::max(max_cells,
                           static_cast<std::size_t>((rect.du() + 1) * (rect.dv() + 1)));
      // The full rectangle: every cell steps along both axes while it can.
      s.cell_base.push_back(s.degrees.size());
      for (std::int32_t a = 0; a <= rect.du(); ++a) {
        for (std::int32_t b = 0; b <= rect.dv(); ++b) {
          s.degrees.push_back(Degree{static_cast<std::uint8_t>((a > 0) + (b > 0)),
                                     static_cast<std::uint8_t>((a < rect.du()) +
                                                               (b < rect.dv()))});
        }
      }
      for (std::int32_t t = 0; t < rect.length(); ++t) {
        const auto begin = static_cast<std::uint32_t>(s.links.size());
        rect.visit_cut(t, [&](Coord, const CommRect::Step& step) {
          s.links.push_back(step.link);
          s.allowed[i * num_links_ + static_cast<std::size_t>(step.link)] = 1;
        });
        s.cuts.push_back({begin, static_cast<std::uint32_t>(s.links.size()) - begin});
      }
    }
    s.depth_base.push_back(s.cuts.size());
    s.old_sizes.clear();
    s.old_sizes.reserve(max_length);
    // A cascade queues a cell at most twice: once per degree reaching zero.
    s.pending.clear();
    s.pending.reserve(2 * max_cells);
  }

  [[nodiscard]] std::size_t size() const noexcept { return s_->rects.size(); }
  [[nodiscard]] const CommRect& rect(std::size_t i) const { return s_->rects[i]; }

  [[nodiscard]] bool allowed(std::size_t i, LinkId link) const {
    return s_->allowed[i * num_links_ + static_cast<std::size_t>(link)] != 0;
  }

  /// Allowed links of communication i at depth t.
  [[nodiscard]] std::span<const LinkId> cut(std::size_t i, std::int32_t t) const {
    const Range& range = s_->cuts[s_->depth_base[i] + static_cast<std::size_t>(t)];
    return {s_->links.data() + range.begin, range.size};
  }

  [[nodiscard]] bool is_single_path(std::size_t i) const noexcept {
    for (std::size_t d = s_->depth_base[i]; d < s_->depth_base[i + 1]; ++d) {
      if (s_->cuts[d].size != 1) return false;
    }
    return true;
  }

  /// Adds (sign × δ/m_t) for every allowed link of every cut.
  void apply_spread(std::size_t i, double weight, LinkLoads& loads) const {
    for (std::size_t d = s_->depth_base[i]; d < s_->depth_base[i + 1]; ++d) {
      PAMR_ASSERT(s_->cuts[d].size != 0);
      const double share = weight / static_cast<double>(s_->cuts[d].size);
      for (const LinkId link : range_links(d)) loads.add(link, share);
    }
  }

  /// Commits every cut that holds one link to it, communications in index
  /// order; true when a link is then certainly over capacity.
  [[nodiscard]] bool commit_singletons(const CommSet& comms, CommitLedger& ledger) const {
    for (std::size_t i = 0; i < size(); ++i) {
      for (std::size_t d = s_->depth_base[i]; d < s_->depth_base[i + 1]; ++d) {
        if (s_->cuts[d].size == 1 &&
            ledger.overloads(s_->links[s_->cuts[d].begin], comms[i].weight)) {
          return true;
        }
      }
    }
    return false;
  }

  /// Remembers communication i's cut sizes before a removal, for
  /// respread() and commit_shrunk().
  void remember_sizes(std::size_t i) {
    s_->old_sizes.clear();
    for (std::size_t d = s_->depth_base[i]; d < s_->depth_base[i + 1]; ++d) {
      s_->old_sizes.push_back(s_->cuts[d].size);
    }
  }

  /// The reference router's commit after a removal: communication i to each
  /// cut the removal shrank to one link, in depth order as respread() does;
  /// true when a link is then certainly over capacity.
  [[nodiscard]] bool commit_shrunk(std::size_t i, double weight, CommitLedger& ledger) const {
    PAMR_ASSERT(s_->old_sizes.size() == s_->depth_base[i + 1] - s_->depth_base[i]);
    for (std::size_t d = s_->depth_base[i]; d < s_->depth_base[i + 1]; ++d) {
      if (s_->cuts[d].size != 1 || s_->old_sizes[d - s_->depth_base[i]] == 1) continue;
      if (ledger.overloads(s_->links[s_->cuts[d].begin], weight)) return true;
    }
    return false;
  }

  /// Disallows `link` and drops it from cut t of communication i, keeping
  /// the order of the rest; the dropped link moves to just past the cut's
  /// new end.
  void remove(std::size_t i, std::int32_t t, LinkId link) {
    s_->allowed[i * num_links_ + static_cast<std::size_t>(link)] = 0;
    Range& range = s_->cuts[s_->depth_base[i] + static_cast<std::size_t>(t)];
    LinkId* const first = s_->links.data() + range.begin;
    LinkId* const last = first + range.size;
    LinkId* const at = std::find(first, last, link);
    PAMR_ASSERT(at != last);
    std::rotate(at, at + 1, last);
    --range.size;
  }

  /// The incremental removal: remembers communication i's cut sizes,
  /// removes `link` from cut t, then drops every link that no longer lies
  /// on a src→snk path. The DAG had no such link before, so one only
  /// appears where a degree reaches zero: a cell other than snk left
  /// without out-links loses its in-links, and a cell other than src left
  /// without in-links loses its out-links. The fixed point of that
  /// cascade is the fixed point of prune()'s reachability sweep: every
  /// surviving link's tail reaches back to src and its head forward to
  /// snk along surviving links. Dropped links keep the cut order of the
  /// rest (remove()).
  void remove_cascading(std::size_t i, std::int32_t t, LinkId link, const Mesh& mesh) {
    const CommRect& rect = s_->rects[i];
    remember_sizes(i);
    const Cell src{0, 0};
    const Cell snk{rect.du(), rect.dv()};
    Degree* const degree = s_->degrees.data() + s_->cell_base[i];
    const auto at = [&](Cell c) -> Degree& {
      return degree[static_cast<std::size_t>(c.a * (snk.b + 1) + c.b)];
    };
    const char* const allowed = s_->allowed.data() + i * num_links_;
    // Drops the link from cell `from` one step along `step` if it exists and
    // is still allowed, and queues each endpoint whose degree it empties.
    const auto drop = [&](Cell from, Cell step) {
      const Cell to{from.a + step.a, from.b + step.b};
      if (from.a < 0 || from.b < 0 || to.a > snk.a || to.b > snk.b) return;
      const LinkId dropped =
          mesh.link_between_unchecked(rect.cell(from.a, from.b), rect.cell(to.a, to.b));
      if (allowed[static_cast<std::size_t>(dropped)] == 0) return;
      remove(i, from.a + from.b, dropped);
      if (--at(from).out == 0) s_->pending.push_back(from);
      if (--at(to).in == 0) s_->pending.push_back(to);
    };
    const LinkInfo& info = mesh.link(link);
    Cell from{};
    const bool inside = rect.cell_offsets(info.from, from.a, from.b);
    PAMR_ASSERT(inside && from.a + from.b == t);
    drop(from, rect.cell(from.a + 1, from.b) == info.to ? Cell{1, 0} : Cell{0, 1});
    while (!s_->pending.empty()) {
      const Cell c = s_->pending.back();
      s_->pending.pop_back();
      const Degree deg = at(c);
      for (const Cell step : {Cell{1, 0}, Cell{0, 1}}) {
        // No way on to snk: the links into c are dead. No way in from src:
        // the links out of c are dead.
        if (deg.out == 0 && c != snk) drop({c.a - step.a, c.b - step.b}, step);
        if (deg.in == 0 && c != src) drop(c, step);
      }
    }
    for (std::size_t d = s_->depth_base[i]; d < s_->depth_base[i + 1]; ++d) {
      PAMR_ASSERT_MSG(s_->cuts[d].size != 0, "cascade emptied a cut — connectivity broken");
    }
  }

  /// The re-spread after remove_cascading(), in one pass over communication
  /// i's DAG as it was before (the remembered cut sizes; the dropped links
  /// sit right after each cut's survivors). Each link gives back its old
  /// share -weight/m_old and, if it survived, takes the new share
  /// weight/m_new: per link the same two additions, in the same order, as
  /// apply_spread(-weight) on the old DAG followed by apply_spread(weight)
  /// on the new one, so the stored doubles come out bit-identical. Appends
  /// (link, before) for each link whose stored load changed; each link lies
  /// in one cut, so no link is listed twice. In the same pass it commits
  /// each cut shrunk to one link, like commit_shrunk(); returns true when
  /// a link is then certainly over capacity.
  [[nodiscard]] bool respread(std::size_t i, double weight, LinkLoads& loads,
                              std::vector<LoadChange>& changes,
                              CommitLedger& ledger) const {
    PAMR_ASSERT(s_->old_sizes.size() == s_->depth_base[i + 1] - s_->depth_base[i]);
    bool overloaded = false;
    for (std::size_t d = s_->depth_base[i]; d < s_->depth_base[i + 1]; ++d) {
      const std::uint32_t old_size = s_->old_sizes[d - s_->depth_base[i]];
      const std::uint32_t new_size = s_->cuts[d].size;
      const double give = -weight / static_cast<double>(old_size);
      const double take = weight / static_cast<double>(new_size);
      const LinkId* const first = s_->links.data() + s_->cuts[d].begin;
      if (new_size == 1 && old_size != 1 && !overloaded) {
        overloaded = ledger.overloads(first[0], weight);
      }
      for (std::uint32_t k = 0; k < old_size; ++k) {
        const LinkId link = first[k];
        const double before = loads.load(link);
        loads.add(link, give);
        if (k < new_size) loads.add(link, take);
        if (loads.load(link) != before) changes.push_back({link, before});
      }
    }
    return overloaded;
  }

  /// Rebuilds communication i's cuts from `allowed`, dropping links that
  /// are not on any surviving src→snk path (forward ∩ backward
  /// reachability over depths). Returns the number of links dropped.
  std::size_t prune(std::size_t i, const Mesh& mesh, PruneScratch& scratch) {
    const CommRect& rect = s_->rects[i];
    if (rect.length() == 0) return 0;
    std::size_t dropped = 0;
    const std::size_t first = s_->depth_base[i];
    const std::size_t last = s_->depth_base[i + 1];
    const std::uint64_t epoch = ++scratch.epoch;
    // Reachability per cell, keyed by depth-local enumeration.
    auto cell_key = [&](Coord c) {
      return static_cast<std::size_t>(mesh.core_index(c));
    };
    scratch.forward[cell_key(rect.src())] = epoch;
    for (std::size_t d = first; d < last; ++d) {
      for (const LinkId link : range_links(d)) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.forward[cell_key(info.from)] == epoch) {
          scratch.forward[cell_key(info.to)] = epoch;
        }
      }
    }
    scratch.backward[cell_key(rect.snk())] = epoch;
    for (std::size_t d = last; d-- > first;) {
      for (const LinkId link : range_links(d)) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.backward[cell_key(info.to)] == epoch) {
          scratch.backward[cell_key(info.from)] = epoch;
        }
      }
    }
    char* const allowed = s_->allowed.data() + i * num_links_;
    for (std::size_t d = first; d < last; ++d) {
      Range& range = s_->cuts[d];
      std::uint32_t keep = range.begin;
      for (std::uint32_t at = range.begin; at < range.begin + range.size; ++at) {
        const LinkId link = s_->links[at];
        const LinkInfo& info = mesh.link(link);
        const bool alive = allowed[static_cast<std::size_t>(link)] != 0 &&
                           scratch.forward[cell_key(info.from)] == epoch &&
                           scratch.backward[cell_key(info.to)] == epoch;
        if (alive) {
          s_->links[keep++] = link;
        } else {
          allowed[static_cast<std::size_t>(link)] = 0;
          ++dropped;
        }
      }
      range.size = keep - range.begin;
      PAMR_ASSERT_MSG(range.size != 0, "prune emptied a cut — connectivity broken");
    }
    return dropped;
  }

  /// Extracts communication i's unique remaining path once single-path.
  [[nodiscard]] Path extract_path(std::size_t i, const Mesh& mesh) const {
    const CommRect& rect = s_->rects[i];
    Path path;
    path.src = rect.src();
    path.snk = rect.snk();
    path.links.reserve(s_->depth_base[i + 1] - s_->depth_base[i]);
    Coord at = rect.src();
    for (std::size_t d = s_->depth_base[i]; d < s_->depth_base[i + 1]; ++d) {
      PAMR_ASSERT(s_->cuts[d].size == 1);
      const LinkId link = s_->links[s_->cuts[d].begin];
      const LinkInfo& info = mesh.link(link);
      PAMR_ASSERT(info.from == at);
      path.links.push_back(link);
      at = info.to;
    }
    PAMR_ASSERT(at == rect.snk());
    return path;
  }

 private:
  struct Range {
    std::uint32_t begin;
    std::uint32_t size;
  };

  [[nodiscard]] std::span<const LinkId> range_links(std::size_t d) const {
    return {s_->links.data() + s_->cuts[d].begin, s_->cuts[d].size};
  }

  /// In- and out-degree of one cell within its communication's DAG.
  struct Degree {
    std::uint8_t in;
    std::uint8_t out;
  };

  /// Offsets (a, b) of a cell from its communication's src (CommRect).
  struct Cell {
    std::int32_t a;
    std::int32_t b;

    friend bool operator==(const Cell&, const Cell&) = default;
  };

  struct Storage {
    std::vector<CommRect> rects;
    std::vector<std::size_t> depth_base;  ///< comm → first depth range; nc + 1 entries
    std::vector<Range> cuts;              ///< (comm, depth) → its links in links
    std::vector<LinkId> links;            ///< every cut, comm-major then depth
    std::vector<char> allowed;            ///< comm × link, 1 = usable
    std::vector<std::size_t> cell_base;   ///< comm → its first cell in degrees
    std::vector<Degree> degrees;          ///< (comm, cell) → degrees in its DAG
    std::vector<std::uint32_t> old_sizes; ///< scratch: cut sizes before a removal
    std::vector<Cell> pending;            ///< scratch: the cascade's worklist
  };

  std::size_t num_links_;
  Reused<Storage> s_;
};

/// Per-link membership lists for the incremental router, in one CSR array:
/// the indices of the communications whose path DAG still contains the
/// link, heaviest-first (order_by_decreasing_weight, ties by index), so
/// the "largest communication using this link" scan is O(members) instead
/// of O(nc). Filled by a count pass and a fill pass in that order; the
/// caller compacts a list lazily as membership dies, which keeps it
/// heaviest-first.
class MemberLists {
 public:
  MemberLists(const CommStates& states, const std::vector<std::size_t>& by_weight,
              std::int32_t num_links) {
    Storage& s = *s_;
    s.begin.assign(static_cast<std::size_t>(num_links) + 1, 0);
    s.size.assign(static_cast<std::size_t>(num_links), 0);
    const auto for_each_membership = [&](auto&& visit) {
      for (const std::size_t idx : by_weight) {
        for (std::int32_t t = 0; t < states.rect(idx).length(); ++t) {
          for (const LinkId link : states.cut(idx, t)) {
            visit(static_cast<std::size_t>(link), static_cast<std::uint32_t>(idx));
          }
        }
      }
    };
    for_each_membership([&](std::size_t link, std::uint32_t) { ++s.begin[link + 1]; });
    for (std::size_t link = 1; link < s.begin.size(); ++link) {
      s.begin[link] += s.begin[link - 1];
    }
    s.comms.resize(s.begin.back());
    for_each_membership([&](std::size_t link, std::uint32_t idx) {
      s.comms[s.begin[link] + s.size[link]++] = idx;
    });
  }

  /// The link's live list, writable for the caller's compaction.
  [[nodiscard]] std::span<std::uint32_t> members(LinkId link) {
    const auto at = static_cast<std::size_t>(link);
    return {s_->comms.data() + s_->begin[at], s_->size[at]};
  }

  /// Keeps the first `keep` entries of the link's list.
  void truncate(LinkId link, std::size_t keep) {
    s_->size[static_cast<std::size_t>(link)] = static_cast<std::uint32_t>(keep);
  }

 private:
  struct Storage {
    std::vector<std::uint32_t> begin;  ///< link → first entry; L + 1 entries
    std::vector<std::uint32_t> size;   ///< link → live entries
    std::vector<std::uint32_t> comms;
  };

  Reused<Storage> s_;
};

/// Adds every communication's initial spread onto `loads`.
void spread_all(const CommStates& states, const CommSet& comms, LinkLoads& loads) {
  for (std::size_t i = 0; i < comms.size(); ++i) {
    states.apply_spread(i, comms[i].weight, loads);
  }
}

/// The incremental router's loads and per-removal change list.
struct Buffers {
  LinkLoads loads{std::int32_t{0}};
  std::vector<LoadChange> changes;
};

std::size_t count_multi_path(const CommStates& states) {
  std::size_t active = 0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (!states.is_single_path(i)) ++active;
  }
  return active;
}

std::vector<Path> extract_paths(const Mesh& mesh, const CommStates& states) {
  std::vector<Path> paths;
  paths.reserve(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) paths.push_back(states.extract_path(i, mesh));
  return paths;
}

}  // namespace

RouteResult PathRemoverRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                          const PowerModel& model, RouteGoal goal) const {
  const WallTimer timer;
  Reused<Buffers> buffers;
  LinkLoads& loads = buffers->loads;
  if (std::cmp_equal(loads.values().size(), mesh.num_links())) {
    loads.clear();
  } else {
    loads = LinkLoads(mesh);
  }
  CommStates states(mesh, comms);
  spread_all(states, comms, loads);
  CommitLedger ledger(mesh, model, goal == RouteGoal::kVerdict);
  std::size_t removals = 0;
  // A stopped call still samples its removals, so the histogram sums to
  // pr.removals.
  const auto stop = [&] {
    obs::sample(obs::Metric::kPrRemovalsPerCall, removals);
    return stopped(timer.elapsed_ms());
  };
  if (ledger.active() && states.commit_singletons(comms, ledger)) return stop();

  // Heaviest-first candidate order within a link (paper: "the largest
  // communication that uses this link").
  const std::vector<std::size_t> by_weight = order_by_decreasing_weight(comms);
  MemberLists members(states, by_weight, mesh.num_links());
  LoadIndex index(mesh.num_links(), loads);

  std::size_t active = count_multi_path(states);
  std::vector<LoadChange>& changes = buffers->changes;
  changes.clear();
#if PAMR_CHECK_LEVEL >= 2
  PruneScratch scratch(static_cast<std::size_t>(mesh.num_cores()));
#endif

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
      const std::span<std::uint32_t> list = members.members(cand);
      std::size_t keep = 0;
      for (const std::uint32_t idx : list) {
        if (!states.allowed(idx, cand)) continue;  // compact away
        list[keep++] = idx;
        if (chosen != none) continue;  // found earlier; just finish compacting
        const std::int32_t t = states.rect(idx).depth(tail);
        PAMR_ASSERT(t >= 0);
        if (states.cut(idx, t).size() >= 2) {
          chosen = idx;
          depth = t;
        }
      }
      members.truncate(cand, keep);
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

    states.remove_cascading(chosen, depth, link, mesh);
#if PAMR_CHECK_LEVEL >= 2
    // Paranoid: the cascade must reach prune()'s fixed point.
    PAMR_INVARIANT("pr-cascade", states.prune(chosen, mesh, scratch) == 0,
                   "the degree cascade left a link that is on no src→snk path");
#endif
    ++removals;
    obs::bump(obs::Metric::kPrRemovals);
    if (states.respread(chosen, comms[chosen].weight, loads, changes, ledger)) return stop();
    index.reorder(changes, loads);
    changes.clear();
    if (states.is_single_path(chosen)) --active;
  }

  obs::sample(obs::Metric::kPrRemovalsPerCall, removals);
  return finish(mesh, comms, model,
                make_single_path_routing(comms, extract_paths(mesh, states)),
                timer.elapsed_ms());
}

RouteResult ReferencePathRemoverRouter::route_impl(const Mesh& mesh,
                                                   const CommSet& comms,
                                                   const PowerModel& model,
                                                   RouteGoal goal) const {
  const WallTimer timer;
  LinkLoads loads(mesh);
  CommStates states(mesh, comms);
  spread_all(states, comms, loads);
  CommitLedger ledger(mesh, model, goal == RouteGoal::kVerdict);
  std::size_t removals = 0;
  const auto stop = [&] {
    obs::sample(obs::Metric::kPrRemovalsPerCall, removals);
    return stopped(timer.elapsed_ms());
  };
  if (ledger.active() && states.commit_singletons(comms, ledger)) return stop();

  // Heaviest-first candidate order within a link (paper: "the largest
  // communication that uses this link").
  const std::vector<std::size_t> by_weight = order_by_decreasing_weight(comms);

  std::vector<LinkId> order(static_cast<std::size_t>(mesh.num_links()));
  std::iota(order.begin(), order.end(), LinkId{0});

  std::size_t active = count_multi_path(states);
  PruneScratch scratch(static_cast<std::size_t>(mesh.num_cores()));

  while (active > 0) {
    std::stable_sort(order.begin(), order.end(), [&loads](LinkId a, LinkId b) {
      return loads.load(a) > loads.load(b);
    });

    bool removed = false;
    for (const LinkId link : order) {
      if (loads.load(link) <= 0.0) break;
      for (const std::size_t index : by_weight) {
        if (!states.allowed(index, link)) continue;
        // Find the cut containing this link; removable iff it keeps ≥ 2
        // links (see file comment: in the monotone DAG this preserves
        // src→snk connectivity).
        const std::int32_t t = states.rect(index).depth(mesh.link(link).from);
        PAMR_ASSERT(t >= 0);
        if (states.cut(index, t).size() < 2) continue;

        states.apply_spread(index, -comms[index].weight, loads);
        states.remember_sizes(index);
        states.remove(index, t, link);
        states.prune(index, mesh, scratch);
        states.apply_spread(index, comms[index].weight, loads);
        ++removals;
        obs::bump(obs::Metric::kPrRemovals);
        if (ledger.active() && states.commit_shrunk(index, comms[index].weight, ledger)) {
          return stop();
        }
        if (states.is_single_path(index)) --active;
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
