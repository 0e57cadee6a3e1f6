// Incremental crossing index for the XYI local search (paper §5.4).
//
// XYI's inner loop repeatedly asks "which communications cross the current
// hot link, and does any of them have a strictly improving detour?" — while
// each applied move only rewrites one path window and only changes the
// loads of the links inside it. The seed implementation answered it from
// scratch every round: a scan of every communication's full path per hot
// link, re-done from the top of the link order after every move.
//
// CrossingIndex maintains two things under applied moves:
//
//   * per-link entry lists — one entry per communication whose *current*
//     path crosses the link, kept sorted by communication index so a walk
//     reproduces the reference's ascending-ci candidate scan (and its
//     first-candidate tie-break) exactly. Each entry carries that member's
//     evaluation slot: its best candidate rotation and the epoch it was
//     computed at;
//   * per-core visitor lists — the communications whose path visits the
//     core, which is the reverse mapping needed for dirty stamping (below).
//
// A slot is reused only while it is provably exact. Evaluating a hot link
// L reads, per crossing communication c: c's path (the rotation windows)
// and the loads of the candidate removed/added links. A candidate
// rotation's links are exactly (i) removed steps, which lie on c's path,
// (ii) the shifted run, whose links are one-lane parallels of path steps,
// and (iii) the moved crossing step, which has one endpoint on c's path.
// Inverting that: when the load of link ℓ changes, the communications whose
// cached evaluations could have read it are the visitors of ℓ's two
// endpoint cores (covers i and iii) plus the members of ℓ's two
// lane-parallel links (covers ii). Each such communication gets the
// current epoch as its dirty stamp, as does a communication whose own path
// is rewritten; a slot computed at or after its communication's dirty
// stamp would recompute from identical inputs, so its cached candidate is
// still exact.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pamr/mesh/coord.hpp"
#include "pamr/mesh/mesh.hpp"
#include "pamr/routing/xy_moves.hpp"

namespace pamr {

class CrossingIndex {
 public:
  /// Memoized per-(link, member) evaluation: the member's best candidate
  /// rotation (+inf when it has none) as of epoch `stamp`. Stamp 0 = never
  /// computed (epochs start at 1).
  struct Slot {
    xyi::Candidate best;
    std::uint64_t stamp = 0;
  };

  /// One member of a link's list: the crossing communication and its slot.
  struct Entry {
    Slot slot;
    std::uint32_t comm;
  };

  /// Registers every communication's initial path, in increasing index
  /// order so entry lists start out sorted. Each list is sized exactly by
  /// a count pass first.
  CrossingIndex(const Mesh& mesh, const xyi::PathStore& paths);

  /// One entry per communication whose current path crosses `link`,
  /// ascending by comm. Slots are writable by the caller, which refreshes a
  /// stale slot and stamps it with epoch().
  [[nodiscard]] std::span<Entry> entries(LinkId link) {
    return entries_[static_cast<std::size_t>(link)];
  }

  /// True iff the slot (belonging to `comm`) still reflects the current
  /// state: computed at or after the comm's dirty stamp. Stamp 0 (never
  /// computed) is always stale because comm stamps start at 1.
  [[nodiscard]] bool slot_fresh(const Slot& slot, std::uint32_t comm) const {
    return slot.stamp >= comm_stamp_[comm];
  }

  /// The stamp for slots recomputed now.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// A move rewrote `comm`'s path from `before` to `after` (same length,
  /// shared prefix/suffix): advances the move epoch, stamps `comm` dirty and
  /// re-indexes exactly the changed window's links and cores.
  void apply_rewrite(std::uint32_t comm, std::span<const Coord> before,
                     std::span<const Coord> after);

  /// The stored load of `link` changed under the current move: stamps every
  /// communication whose path passes within one hop of it (the set whose
  /// cached evaluations could have read this load — see file comment).
  /// Call after apply_rewrite for each link whose value actually changed.
  void note_load_change(LinkId link);

 private:
  void stamp_core(Coord core);

  const Mesh* mesh_;
  std::uint64_t epoch_ = 1;                            ///< applied-move counter
  std::vector<std::vector<Entry>> entries_;            ///< link → crossing comms, sorted
  std::vector<std::vector<std::uint32_t>> visitors_;   ///< core → visiting comms
  std::vector<std::uint64_t> comm_stamp_;              ///< comm → epoch last dirtied
  std::vector<std::uint64_t> core_mark_;               ///< scratch: core stamped this epoch
};

}  // namespace pamr
