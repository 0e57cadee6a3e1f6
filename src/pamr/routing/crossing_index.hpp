// Incremental crossing index for the XYI local search (paper §5.4).
//
// XYI's inner loop repeatedly asks "which communications cross the current
// hot link, and does any of them have a strictly improving detour?" — while
// each applied move only rewrites one path window and only changes the
// loads of the links inside it. The seed implementation answered it from
// scratch every round: a scan of every communication's full path per hot
// link, re-done from the top of the link order after every move.
//
// CrossingIndex keeps per-link entry lists under applied moves: one entry
// per communication whose *current* path crosses the link, sorted by
// communication index so a walk reproduces the reference's ascending-ci
// candidate scan (and its first-candidate tie-break) exactly. Each entry
// carries that member's evaluation slot: its best candidate rotation, the
// epoch it was computed at, and the links that evaluation read.
//
// A slot is reused only while it is provably exact. Evaluating hot link L
// for a crossing communication c (xyi::best_candidate) is a pure function
// of c's path, its weight and the loads of the links it costs, and it
// reports those links itself. So the slot is fresh while c's path has not
// been rewritten since the slot's epoch (c's comm stamp) and none of its
// read links has changed load since then (each link's epoch). Re-evaluating
// a fresh slot would recompute from identical inputs, so its cached
// candidate is still exact.
//
// The read lists live in one pool. A re-evaluation of an unrewritten path
// reads the same links, so it overwrites its slot's range in place; only a
// first evaluation (or one after a rewrite that changed the list's length)
// appends.
//
// XYI builds the index on every call. Its buffers (the per-link entry
// lists, the read pool and the stamps) are a per-thread Reused spare
// (util/reused.hpp): each entry list keeps the capacity it reached on an
// earlier call on the same thread, so in steady state building the index
// allocates nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "pamr/mesh/coord.hpp"
#include "pamr/mesh/mesh.hpp"
#include "pamr/routing/xy_moves.hpp"
#include "pamr/util/reused.hpp"

namespace pamr {

class CrossingIndex {
 public:
  /// Memoized per-(link, member) evaluation: the member's best candidate
  /// rotation (+inf when it has none) as of epoch `stamp`, and the range of
  /// the read pool holding the links it read. Stamp 0 = never computed
  /// (epochs start at 1).
  struct Slot {
    xyi::Candidate best;
    std::uint64_t stamp = 0;
    std::uint32_t read_begin = 0;
    std::uint32_t read_size = 0;
  };

  /// One member of a link's list: the crossing communication and its slot.
  struct Entry {
    Slot slot;
    std::uint32_t comm;
  };

  /// Registers every communication's initial path, in increasing index
  /// order so entry lists start out sorted.
  CrossingIndex(const Mesh& mesh, const xyi::PathStore& paths);

  /// One entry per communication whose current path crosses `link`,
  /// ascending by comm. Slots are writable by the caller, which refreshes a
  /// stale slot through refresh().
  [[nodiscard]] std::span<Entry> entries(LinkId link) {
    return s_->entries[static_cast<std::size_t>(link)];
  }

  /// True iff the slot (belonging to `comm`) still reflects the current
  /// state: computed at or after the comm's last rewrite, and no link it
  /// read changed load since. Stamp 0 (never computed) is always stale
  /// because comm stamps start at 1.
  [[nodiscard]] bool slot_fresh(const Slot& slot, std::uint32_t comm) const {
    if (slot.stamp < s_->comm_stamp[comm]) return false;
    const auto first = s_->reads.begin() + slot.read_begin;
    return std::all_of(first, first + slot.read_size, [&](LinkId link) {
      return s_->link_epoch[static_cast<std::size_t>(link)] <= slot.stamp;
    });
  }

  /// The links a fresh slot's evaluation read.
  [[nodiscard]] std::span<const LinkId> reads(const Slot& slot) const {
    return {s_->reads.data() + slot.read_begin, slot.read_size};
  }

  /// Recomputes a stale slot now: `evaluate(reads)` returns the candidate
  /// and appends the links it read to `reads` (xyi::best_candidate's
  /// contract).
  template <class Evaluate>
  void refresh(Slot& slot, Evaluate&& evaluate) {
    std::vector<LinkId>& reads = s_->reads;
    const std::size_t begin = reads.size();
    slot.best = evaluate(reads);
    const auto size = static_cast<std::uint32_t>(reads.size() - begin);
    if (size == slot.read_size) {
      std::copy(reads.begin() + static_cast<std::ptrdiff_t>(begin), reads.end(),
                reads.begin() + slot.read_begin);
      reads.resize(begin);
    } else {
      slot.read_begin = static_cast<std::uint32_t>(begin);
      slot.read_size = size;
    }
    slot.stamp = epoch_;
  }

  /// A move rewrote `comm`'s path from `before` to `after` (same length,
  /// shared prefix/suffix): advances the move epoch, stamps `comm` and
  /// re-indexes exactly the changed window's links.
  void apply_rewrite(std::uint32_t comm, std::span<const Coord> before,
                     std::span<const Coord> after);

  /// The stored load of `link` changed under the current move. Call after
  /// apply_rewrite for each link whose value actually changed.
  void note_load_change(LinkId link) {
    s_->link_epoch[static_cast<std::size_t>(link)] = epoch_;
  }

 private:
  struct Storage {
    /// link → crossing comms, sorted; may hold more lists than the mesh has
    /// links, left over from a larger mesh on this thread
    std::vector<std::vector<Entry>> entries;
    std::vector<std::uint64_t> comm_stamp;  ///< comm → epoch of its last rewrite
    std::vector<std::uint64_t> link_epoch;  ///< link → epoch of its last load change
    std::vector<LinkId> reads;              ///< every slot's read links
  };

  const Mesh* mesh_;
  std::uint64_t epoch_ = 1;  ///< applied-move counter
  Reused<Storage> s_;
};

}  // namespace pamr
