#include "pamr/routing/load_index.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <string>

#include "pamr/obs/obs.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

// ------------------------------------------------------------ LinkRanks --

LinkRanks::LinkRanks(std::int32_t num_links)
    : rank_(static_cast<std::size_t>(num_links)), next_back_(num_links) {
  PAMR_ASSERT(num_links >= 0);
  std::iota(rank_.begin(), rank_.end(), std::int64_t{0});
}

const std::vector<LinkId>& LinkRanks::update(std::span<const LoadChange> changes,
                                             const LinkLoads& loads) {
  obs::bump(obs::Metric::kLoadIndexReorders);
  changed_.clear();
  risers_.clear();
  fallers_.clear();
  for (const auto [link, before] : changes) {
    const double now = loads.load(link);
    if (now == before) continue;
    changed_.push_back(link);
    (now > before ? risers_ : fallers_)
        .push_back({before, rank_[static_cast<std::size_t>(link)], link});
  }
  // Each group in its old (load desc, rank asc) order.
  const auto old_order = [](const Mover& a, const Mover& b) {
    if (a.before != b.before) return a.before > b.before;
    return a.rank < b.rank;
  };
  std::sort(risers_.begin(), risers_.end(), old_order);
  for (const Mover& m : risers_) rank_[static_cast<std::size_t>(m.link)] = next_back_++;
  std::sort(fallers_.begin(), fallers_.end(), old_order);
  for (auto it = fallers_.rbegin(); it != fallers_.rend(); ++it) {
    rank_[static_cast<std::size_t>(it->link)] = next_front_--;
  }
  return changed_;
}

// ------------------------------------------------------------ LoadIndex --

namespace {

constexpr double kEmptyLoad = -std::numeric_limits<double>::infinity();

}  // namespace

LoadIndex::LoadIndex(std::int32_t num_links, const LinkLoads& loads)
    : ranks_(num_links),
      num_links_(static_cast<std::size_t>(num_links)),
      leaves_(std::bit_ceil(std::max<std::size_t>(num_links_, 1))),
      tree_(2 * leaves_, Node{kEmptyLoad, 0, kInvalidLink}) {
  for (LinkId link = 0; link < num_links; ++link) {
    tree_[leaves_ + static_cast<std::size_t>(link)] = leaf_key(link, loads);
  }
  for (std::size_t node = leaves_ - 1; node >= 1; --node) tree_[node] = winner(node);
}

LoadIndex::Node LoadIndex::leaf_key(LinkId link, const LinkLoads& loads) const {
  return Node{loads.load(link), ranks_.rank(link), link};
}

LoadIndex::Node LoadIndex::winner(std::size_t node) const {
  const Node& left = tree_[2 * node];
  const Node& right = tree_[2 * node + 1];
  if (left.load != right.load) return left.load > right.load ? left : right;
  return left.rank < right.rank ? left : right;
}

void LoadIndex::refix(LinkId link, Node leaf) {
  std::size_t node = leaves_ + static_cast<std::size_t>(link);
  tree_[node] = leaf;
  // Once a node's winner comes out unchanged, its ancestors' inputs are
  // unchanged too. Inner nodes still holding another changed link's old key
  // lie on that link's own path, which its refix walks in turn.
  for (node /= 2; node >= 1; node /= 2) {
    const Node fixed = winner(node);
    if (fixed == tree_[node]) break;
    tree_[node] = fixed;
  }
}

void LoadIndex::retire(LinkId link) {
  obs::bump(obs::Metric::kPrLinksRetired);
  refix(link, Node{kEmptyLoad, 0, kInvalidLink});
}

void LoadIndex::reorder(std::span<const LoadChange> changes, const LinkLoads& loads) {
  for (const LinkId link : ranks_.update(changes, loads)) {
    if (!is_retired(link)) refix(link, leaf_key(link, loads));
  }
#if PAMR_CHECK_LEVEL >= 2
  check_invariants(loads);
#endif
}

void LoadIndex::check_invariants(const LinkLoads& loads) const {
  for (std::size_t leaf = 0; leaf < leaves_; ++leaf) {
    const Node& held = tree_[leaves_ + leaf];
    if (held.link == kInvalidLink) continue;  // retired or padding
    PAMR_INVARIANT_ALWAYS("load-index",
                          leaf < num_links_ && held.link == static_cast<LinkId>(leaf),
                          "winner-tree leaf " + std::to_string(leaf) + " holds another link");
    PAMR_INVARIANT_ALWAYS(
        "load-index", held == leaf_key(held.link, loads),
        "winner-tree node " + std::to_string(leaves_ + leaf) + " (leaf of link " +
            std::to_string(leaf) +
            ") holds a stale key — a load change was never reported to reorder()");
  }
  for (std::size_t node = leaves_ - 1; node >= 1; --node) {
    PAMR_INVARIANT_ALWAYS(
        "load-index", tree_[node] == winner(node),
        "winner-tree node " + std::to_string(node) + " holds link " +
            std::to_string(tree_[node].link) + " where its children pick link " +
            std::to_string(winner(node).link) +
            " — a load change was never reported to reorder()");
  }
}

// ------------------------------------------------------------ LoadOrder --

LoadOrder::LoadOrder(std::int32_t num_links, const LinkLoads& loads)
    : ranks_(num_links),
      order_(static_cast<std::size_t>(num_links)),
      changed_mark_(static_cast<std::size_t>(num_links), 0) {
  std::iota(order_.begin(), order_.end(), LinkId{0});
  std::sort(order_.begin(), order_.end(),
            [&](LinkId a, LinkId b) { return ranks_.precedes(a, b, loads); });
  merge_scratch_.reserve(order_.size());
}

const std::vector<LinkId>& LoadOrder::reorder(std::span<const LoadChange> changes,
                                              const LinkLoads& loads) {
  // Unchanged links keep their loads and ranks, so they are still in
  // (load, rank) order; merge the re-sorted changed links into them.
  const std::vector<LinkId>& changed = ranks_.update(changes, loads);
  const auto precedes = [&](LinkId a, LinkId b) { return ranks_.precedes(a, b, loads); };
  resort_scratch_.assign(changed.begin(), changed.end());
  std::sort(resort_scratch_.begin(), resort_scratch_.end(), precedes);
  for (const LinkId link : changed) changed_mark_[static_cast<std::size_t>(link)] = 1;

  merge_scratch_.clear();
  std::size_t next = 0;
  for (const LinkId link : order_) {
    if (changed_mark_[static_cast<std::size_t>(link)] != 0) continue;  // merged below
    while (next < resort_scratch_.size() && precedes(resort_scratch_[next], link)) {
      merge_scratch_.push_back(resort_scratch_[next++]);
    }
    merge_scratch_.push_back(link);
  }
  merge_scratch_.insert(merge_scratch_.end(),
                        resort_scratch_.begin() + static_cast<std::ptrdiff_t>(next),
                        resort_scratch_.end());
  order_.swap(merge_scratch_);
  for (const LinkId link : changed) changed_mark_[static_cast<std::size_t>(link)] = 0;
#if PAMR_CHECK_LEVEL >= 2
  check_invariants(loads);
#endif
  return changed;
}

void LoadOrder::check_invariants(const LinkLoads& loads) const {
  std::vector<char> seen(changed_mark_.size(), 0);
  PAMR_INVARIANT_ALWAYS("load-index", order_.size() == seen.size(),
                        "order_ does not hold every link");
  for (std::size_t at = 0; at < order_.size(); ++at) {
    const auto link = static_cast<std::size_t>(order_[at]);
    PAMR_INVARIANT_ALWAYS("load-index", link < seen.size(),
                          "order_ holds an out-of-range link id");
    PAMR_INVARIANT_ALWAYS("load-index", seen[link] == 0, "link appears twice in order_");
    seen[link] = 1;
    PAMR_INVARIANT_ALWAYS(
        "load-index", at == 0 || ranks_.precedes(order_[at - 1], order_[at], loads),
        "order_ is not in (load desc, rank asc) order at link " + std::to_string(link) +
            " — a load change was never reported to reorder()");
  }
}

}  // namespace pamr
