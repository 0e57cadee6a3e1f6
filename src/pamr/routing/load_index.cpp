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

LinkRanks::LinkRanks(std::int32_t num_links) : next_back_(num_links) {
  PAMR_ASSERT(num_links >= 0);
  s_->rank.resize(static_cast<std::size_t>(num_links));
  std::iota(s_->rank.begin(), s_->rank.end(), std::int64_t{0});
}

const std::vector<LinkId>& LinkRanks::update(std::span<const LoadChange> changes,
                                             const LinkLoads& loads) {
  obs::bump(obs::Metric::kLoadIndexReorders);
  Storage& s = *s_;
  s.changed.clear();
  s.risers.clear();
  s.fallers.clear();
  for (const auto [link, before] : changes) {
    const double now = loads.load(link);
    if (now == before) continue;
    s.changed.push_back(link);
    (now > before ? s.risers : s.fallers)
        .push_back({before, s.rank[static_cast<std::size_t>(link)], link});
  }
  // Each group in its old (load desc, rank asc) order.
  const auto old_order = [](const Mover& a, const Mover& b) {
    if (a.before != b.before) return a.before > b.before;
    return a.rank < b.rank;
  };
  std::sort(s.risers.begin(), s.risers.end(), old_order);
  for (const Mover& m : s.risers) s.rank[static_cast<std::size_t>(m.link)] = next_back_++;
  std::sort(s.fallers.begin(), s.fallers.end(), old_order);
  for (auto it = s.fallers.rbegin(); it != s.fallers.rend(); ++it) {
    s.rank[static_cast<std::size_t>(it->link)] = next_front_--;
  }
  return s.changed;
}

// ------------------------------------------------------------ LoadIndex --

namespace {

constexpr double kEmptyLoad = -std::numeric_limits<double>::infinity();

}  // namespace

LoadIndex::LoadIndex(std::int32_t num_links, const LinkLoads& loads)
    : ranks_(num_links),
      num_links_(static_cast<std::size_t>(num_links)),
      leaves_(std::bit_ceil(std::max<std::size_t>(num_links_, 1))) {
  std::vector<Node>& tree = s_->tree;
  tree.assign(2 * leaves_, Node{kEmptyLoad, kInvalidLink});
  for (LinkId link = 0; link < num_links; ++link) {
    tree[leaves_ + static_cast<std::size_t>(link)] = leaf_key(link, loads);
  }
  for (std::size_t node = leaves_ - 1; node >= 1; --node) tree[node] = winner(node);
}

LoadIndex::Node LoadIndex::leaf_key(LinkId link, const LinkLoads& loads) const {
  return Node{loads.load(link), link};
}

LoadIndex::Node LoadIndex::winner(std::size_t node) const {
  const Node& left = s_->tree[2 * node];
  const Node& right = s_->tree[2 * node + 1];
  if (left.load != right.load) return left.load > right.load ? left : right;
  // Equal loads: two links, or two empty nodes (no link's load is -inf).
  if (left.link == kInvalidLink) return left;
  return ranks_.rank(left.link) < ranks_.rank(right.link) ? left : right;
}

void LoadIndex::refix(LinkId link, Node leaf) {
  std::vector<Node>& tree = s_->tree;
  std::size_t node = leaves_ + static_cast<std::size_t>(link);
  tree[node] = leaf;
  // Once a node's winner comes out unchanged, its ancestors' inputs are
  // unchanged too. Inner nodes still holding another changed link's old
  // load lie on that link's own path, which its refix walks in turn; every
  // node there holding the old (load, link) pair comes out changed, so that
  // walk reaches each comparison made against the link's new rank.
  for (node /= 2; node >= 1; node /= 2) {
    const Node fixed = winner(node);
    if (fixed == tree[node]) break;
    tree[node] = fixed;
  }
}

void LoadIndex::retire(LinkId link) {
  obs::bump(obs::Metric::kPrLinksRetired);
  refix(link, Node{kEmptyLoad, kInvalidLink});
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
    const Node& held = s_->tree[leaves_ + leaf];
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
        "load-index", s_->tree[node] == winner(node),
        "winner-tree node " + std::to_string(node) + " holds link " +
            std::to_string(s_->tree[node].link) + " where its children pick link " +
            std::to_string(winner(node).link) +
            " — a load change was never reported to reorder()");
  }
}

// ------------------------------------------------------------ LoadOrder --

LoadOrder::LoadOrder(std::int32_t num_links, const LinkLoads& loads) : ranks_(num_links) {
  Storage& s = *s_;
  const auto count = static_cast<std::size_t>(num_links);
  // Ranks start at LinkId, so (load desc, LinkId asc) is the (load, rank)
  // order; sorting the pairs reads no rank and no load array.
  s.keyed.clear();
  for (LinkId link = 0; link < num_links; ++link) {
    s.keyed.push_back({loads.load(link), link});
  }
  std::sort(s.keyed.begin(), s.keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.load != b.load) return a.load > b.load;
    return a.link < b.link;
  });
  s.order.clear();
  for (const Keyed& k : s.keyed) s.order.push_back(k.link);
  s.changed_mark.assign(count, 0);
}

const std::vector<LinkId>& LoadOrder::reorder(std::span<const LoadChange> changes,
                                              const LinkLoads& loads) {
  // Unchanged links keep their loads and ranks, so they are still in
  // (load, rank) order once the changed links are dropped; each changed
  // link then goes back in after every link that precedes it.
  const std::vector<LinkId>& changed = ranks_.update(changes, loads);
  Storage& s = *s_;
  if (!changed.empty()) {
    for (const LinkId link : changed) s.changed_mark[static_cast<std::size_t>(link)] = 1;
    std::erase_if(s.order, [&](LinkId link) {
      return s.changed_mark[static_cast<std::size_t>(link)] != 0;
    });
    for (const LinkId link : changed) {
      s.changed_mark[static_cast<std::size_t>(link)] = 0;
      const auto at = std::upper_bound(
          s.order.begin(), s.order.end(), link,
          [&](LinkId a, LinkId b) { return ranks_.precedes(a, b, loads); });
      s.order.insert(at, link);
    }
  }
#if PAMR_CHECK_LEVEL >= 2
  check_invariants(loads);
#endif
  return changed;
}

void LoadOrder::check_invariants(const LinkLoads& loads) const {
  const std::vector<LinkId>& order = s_->order;
  std::vector<char> seen(s_->changed_mark.size(), 0);
  PAMR_INVARIANT_ALWAYS("load-index", order.size() == seen.size(),
                        "the order does not hold every link");
  for (std::size_t at = 0; at < order.size(); ++at) {
    const auto link = static_cast<std::size_t>(order[at]);
    PAMR_INVARIANT_ALWAYS("load-index", link < seen.size(),
                          "the order holds an out-of-range link id");
    PAMR_INVARIANT_ALWAYS("load-index", seen[link] == 0,
                          "link appears twice in the order");
    seen[link] = 1;
    PAMR_INVARIANT_ALWAYS(
        "load-index", at == 0 || ranks_.precedes(order[at - 1], order[at], loads),
        "the order is not in (load desc, rank asc) order at link " + std::to_string(link) +
            " — a load change was never reported to reorder()");
  }
}

}  // namespace pamr
