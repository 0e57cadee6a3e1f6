// Incremental hot-link indexes for the PR path remover (paper §5.5) and the
// XYI improver (§5.4).
//
// Both loops repeatedly ask "which is the most loaded link?" while each step
// (a PR removal, an XYI move) only changes a handful of link loads. The seed
// answered it from scratch every time with a stable_sort of every mesh link,
// O(L log L) per step.
//
// Crucially, the seed's sort is a *stable* sort of a persistent order
// vector: equal-load links keep the relative order they had in the previous
// round, so the effective tie-break is the whole load history. Exact equal
// loads are common — every link of a cut carries the same δ/m share — so
// this history is observable in the final routing.
//
// The history fits in one integer per link. LinkRanks keeps a `rank` such
// that ordering by (load desc, rank asc) is exactly the seed's stable
// re-sort. Ranks start at LinkId (the seed's first round sorts the identity
// permutation). After a step, a link whose stored load rose takes the next
// value of an increasing counter (the back of its new equal-load group); a
// link whose load fell takes the next value of a decreasing counter (the
// front). Links moving the same way are numbered in their old (before-load
// desc, rank asc) order, fallers in reverse, so among themselves they keep
// that order. Why this is the stable sort: take two links a, b that end
// with equal loads (unequal loads are ordered by load in both), and assume
// (load, rank) gave the old order before the step.
//
//   1. both unchanged: same loads, same ranks, same relative order as
//      before — which is what the stable sort keeps;
//   2. a rose, b unchanged: a was below b's load before, hence behind b;
//      a's new rank exceeds every existing rank, so a stays behind b;
//   3. a fell, b unchanged: a was above b's load before, hence ahead of b;
//      a's new rank is below every existing rank, so a stays ahead;
//   4. both rose: the stable sort keeps their old relative order; the
//      increasing counter numbers them in exactly that order;
//   5. both fell: same, with the decreasing counter walked in reverse so
//      the one that was ahead gets the smaller rank;
//   6. a rose, b fell: before the step a was below the common new load and
//      b above it, so b was ahead; b's rank is negative-going and a's
//      positive-going, so b stays ahead.
//
// Two views use the ranks:
//
//   * LoadIndex (PR): a winner (tournament) tree over the links. A node is
//     16 bytes, the winner's load and LinkId; the rank stays in LinkRanks
//     and is read only when two live loads tie, so most comparisons touch
//     two adjacent nodes and nothing else. An empty node (a retired or
//     padding leaf) has load -inf, which no link's load equals, so it is
//     never asked for a rank. top() is the first live link; retire()
//     empties a leaf. A step re-fixes only the root paths of the K changed
//     leaves, each stopping at the first node whose winner is unchanged:
//     O(K log L) at worst, and a level or two for a link that stays cold.
//     PR's per-link membership lists live next to its states
//     (path_remover.cpp).
//   * LoadOrder (XYI): the materialized sorted order, walked from the top
//     after every move (about 29 links deep on the paper's 8×8 regime). It
//     is built by sorting (load, LinkId) pairs, which is the (load, rank)
//     order because ranks start at LinkId. A step updates it in place: one
//     compaction pass drops the K changed links, then each goes back in at
//     its upper_bound in (load desc, rank asc) order, O(L + K log L) with
//     no second array.
//
// Both indexes, and the ranks under them, keep their buffers in a
// per-thread Reused spare (util/reused.hpp): the router builds them on
// every call, and on the same thread the next call refills the previous
// call's capacity instead of allocating.
//
// Both take a step's changes as one list of LoadChange records (link, load
// before the step). PR's one-pass re-spread visits each link of the moved
// communication once, so it records a link only when its stored double
// changed. An XYI move touches shared links twice (-w, then +w), so XYI
// keeps first touches in a TouchLog and lets the update skip the links
// whose load came back unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pamr/mesh/mesh.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/util/reused.hpp"

namespace pamr {

/// One stored link load that changed across an incremental update (a PR
/// removal, an XYI move): the link and its load before the update. This is
/// the one input both indexes re-rank from; the rank rule needs the old
/// load to know which way the link moved.
struct LoadChange {
  LinkId link;
  double before;
};

/// First-touch snapshots of stored link loads across one XYI move, whose
/// -w/+w round trip touches a link of the shared prefix and suffix twice.
/// Only the first touch is kept, so `changes` holds each link once with its
/// load before the move, including links the round trip left unchanged or
/// shifted by an ulp (IEEE addition is not associative, and the reference
/// loop's next sort sees the perturbed bits); the indexes skip the
/// unchanged ones.
struct TouchLog {
  std::vector<LoadChange> changes;
  std::vector<char> seen;  ///< indexed by LinkId

  explicit TouchLog(std::size_t num_links) : seen(num_links, 0) {}

  void record(LinkId link, double load) {
    if (seen[static_cast<std::size_t>(link)] != 0) return;
    seen[static_cast<std::size_t>(link)] = 1;
    changes.push_back({link, load});
  }

  void clear() {
    for (const LoadChange& change : changes) seen[static_cast<std::size_t>(change.link)] = 0;
    changes.clear();
  }
};

/// The seed's stable-sort tie-break as one rank per link (see file comment).
class LinkRanks {
 public:
  /// Ranks start at LinkId.
  explicit LinkRanks(std::int32_t num_links);

  [[nodiscard]] std::int64_t rank(LinkId link) const {
    return s_->rank[static_cast<std::size_t>(link)];
  }

  /// True iff `a` comes before `b` in (load desc, rank asc) order.
  [[nodiscard]] bool precedes(LinkId a, LinkId b, const LinkLoads& loads) const {
    const double la = loads.load(a);
    const double lb = loads.load(b);
    if (la != lb) return la > lb;
    return rank(a) < rank(b);
  }

  /// Applies the rise→back / fall→front rule to every listed link whose
  /// stored load now differs from its `before`, and returns those links in
  /// list order (valid until the next call).
  const std::vector<LinkId>& update(std::span<const LoadChange> changes,
                                    const LinkLoads& loads);

 private:
  struct Mover {
    double before;
    std::int64_t rank;
    LinkId link;
  };

  struct Storage {
    std::vector<std::int64_t> rank;
    std::vector<LinkId> changed;
    std::vector<Mover> risers;
    std::vector<Mover> fallers;
  };

  Reused<Storage> s_;
  std::int64_t next_back_;        ///< next rank for a riser (above every rank)
  std::int64_t next_front_ = -1;  ///< next rank for a faller (below every rank)
};

/// PR's index: the first live link in (load desc, rank asc) order from a
/// winner tree.
class LoadIndex {
 public:
  /// Captures the seed's first round: ties in LinkId order.
  LoadIndex(std::int32_t num_links, const LinkLoads& loads);

  /// The first live link in (load desc, rank asc) order — the seed's
  /// stable-sort order with retired links skipped; kInvalidLink once every
  /// link is retired.
  [[nodiscard]] LinkId top() const { return s_->tree[1].link; }

  /// Marks a link permanently unremovable: it is never returned by top()
  /// again, and any later load change reported for it is ignored (its
  /// relative order can never matter again).
  void retire(LinkId link);
  [[nodiscard]] bool is_retired(LinkId link) const {
    return s_->tree[leaves_ + static_cast<std::size_t>(link)].link == kInvalidLink;
  }

  /// Re-ranks the listed links whose stored load changed and re-fixes their
  /// tree paths. Exactly equivalent to the seed's stable_sort of the
  /// persistent order vector by the new loads. At PAMR_CHECK_LEVEL >= 2
  /// every call re-verifies the whole tree against `loads` (O(L)).
  void reorder(std::span<const LoadChange> changes, const LinkLoads& loads);

  /// Verifies every tree node against the current loads: each leaf holds
  /// its own link's current (load, rank) key or nothing (retired), and each
  /// inner node holds the winner of its two children. Throws pamr::InvariantError
  /// (category "load-index") on the first violation — a stale node means
  /// some load change was never reported to reorder(), which is exactly the
  /// corruption that silently changes PR's removal order. Called
  /// automatically from reorder() under the paranoid check level; always
  /// callable directly (tests do).
  void check_invariants(const LinkLoads& loads) const;

 private:
  /// A link and its load, 16 bytes; its rank is read from ranks_ only on
  /// a load tie. An empty node (retired leaf, padding) has load -inf and
  /// loses to every link.
  struct Node {
    double load;
    LinkId link;

    friend bool operator==(const Node&, const Node&) = default;
  };
  struct Storage {
    std::vector<Node> tree;  ///< [1, leaves_) winners, [leaves_, 2·leaves_) leaves
  };

  [[nodiscard]] Node leaf_key(LinkId link, const LinkLoads& loads) const;
  [[nodiscard]] Node winner(std::size_t node) const;
  void refix(LinkId link, Node leaf);

  LinkRanks ranks_;
  std::size_t num_links_;
  std::size_t leaves_;  ///< first leaf node; a power of two ≥ the link count
  Reused<Storage> s_;
};

/// XYI's index: every link in (load desc, rank asc) order, for a walk from
/// the top.
class LoadOrder {
 public:
  /// Captures the seed's first round: ties in LinkId order.
  LoadOrder(std::int32_t num_links, const LinkLoads& loads);

  [[nodiscard]] std::size_t size() const noexcept { return s_->order.size(); }
  [[nodiscard]] LinkId link_at(std::size_t at) const { return s_->order[at]; }

  /// Re-ranks the listed links whose stored load changed and moves them to
  /// their new places in the order. Exactly equivalent to the seed's
  /// stable_sort of the persistent order vector by the new loads. Returns
  /// the changed links in list order (valid until the next call). At
  /// PAMR_CHECK_LEVEL >= 2 every call, even one that changed nothing,
  /// re-verifies the whole order against `loads` (O(L)).
  const std::vector<LinkId>& reorder(std::span<const LoadChange> changes,
                                     const LinkLoads& loads);

  /// Verifies that the order is a permutation of the links in strict
  /// (load desc, rank asc) order. Throws pamr::InvariantError (category
  /// "load-index") on the first violation.
  void check_invariants(const LinkLoads& loads) const;

 private:
  /// A link with its initial load, for the construction sort.
  struct Keyed {
    double load;
    LinkId link;
  };
  struct Storage {
    std::vector<LinkId> order;
    std::vector<char> changed_mark;  ///< scratch: link changed this step
    std::vector<Keyed> keyed;        ///< scratch: the construction sort
  };

  LinkRanks ranks_;
  Reused<Storage> s_;
};

}  // namespace pamr
