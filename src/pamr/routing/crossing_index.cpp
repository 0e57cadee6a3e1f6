#include "pamr/routing/crossing_index.hpp"

#include <algorithm>

#include "pamr/obs/obs.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

CrossingIndex::CrossingIndex(const Mesh& mesh, const xyi::PathStore& paths) : mesh_(&mesh) {
  Storage& s = *s_;
  const auto num_links = static_cast<std::size_t>(mesh.num_links());
  // Lists left over from a larger mesh stay, unread, with their capacity.
  if (s.entries.size() < num_links) s.entries.resize(num_links);
  for (std::size_t link = 0; link < num_links; ++link) s.entries[link].clear();
  s.comm_stamp.assign(paths.size(), 1);  // ≥ 1, so never-computed slots (stamp 0) are stale
  s.link_epoch.assign(num_links, 0);
  s.reads.clear();
  for (std::size_t ci = 0; ci < paths.size(); ++ci) {
    const auto comm = static_cast<std::uint32_t>(ci);
    for (const LinkId link : paths.links(ci)) {
      auto& list = s.entries[static_cast<std::size_t>(link)];
      PAMR_ASSERT(list.empty() || list.back().comm < comm);  // registration order
      list.push_back(Entry{Slot{}, comm});
    }
  }
}

void CrossingIndex::apply_rewrite(std::uint32_t comm, std::span<const Coord> before,
                                  std::span<const Coord> after) {
  PAMR_ASSERT(before.size() == after.size());
  obs::bump(obs::Metric::kXyiIndexRewrites);
  ++epoch_;
  s_->comm_stamp[comm] = epoch_;
  // Entry lists stay sorted by communication: shifts over short contiguous
  // lists beat node containers here. A new member starts with a stale slot.
  const auto find_member = [&](std::vector<Entry>& list, std::uint32_t value) {
    return std::lower_bound(list.begin(), list.end(), value,
                            [](const Entry& e, std::uint32_t c) { return e.comm < c; });
  };
  const auto erase_member = [&](LinkId link, std::uint32_t value) {
    auto& list = s_->entries[static_cast<std::size_t>(link)];
    const auto at = find_member(list, value);
    PAMR_ASSERT(at != list.end() && at->comm == value);
    list.erase(at);
  };
  const auto insert_member = [&](LinkId link, std::uint32_t value) {
    auto& list = s_->entries[static_cast<std::size_t>(link)];
    const auto at = find_member(list, value);
    PAMR_ASSERT(at == list.end() || at->comm != value);
    list.insert(at, Entry{Slot{}, value});
  };
  for (std::size_t k = 0; k + 1 < before.size(); ++k) {
    if (before[k] == after[k] && before[k + 1] == after[k + 1]) continue;
    const LinkId removed = mesh_->link_between(before[k], before[k + 1]);
    const LinkId added = mesh_->link_between(after[k], after[k + 1]);
    if (removed == added) continue;
    erase_member(removed, comm);
    insert_member(added, comm);
  }
#if PAMR_CHECK_LEVEL >= 2
  // Paranoid: the rewritten window's entry lists must still be strictly
  // ascending — the ascending walk is what reproduces the reference
  // candidate scan's tie-breaks bit for bit.
  for (std::size_t k = 0; k + 1 < after.size(); ++k) {
    const auto idx = static_cast<std::size_t>(mesh_->link_between(after[k], after[k + 1]));
    const std::vector<Entry>& list = s_->entries[idx];
    PAMR_INVARIANT("crossing-index",
                   std::adjacent_find(list.begin(), list.end(),
                                      [](const Entry& a, const Entry& b) {
                                        return a.comm >= b.comm;
                                      }) == list.end(),
                   "member list is not strictly ascending after a rewrite");
  }
#endif
}

}  // namespace pamr
