// Topologies beyond the paper's p×q rectangular mesh.
//
// The routing stack is built against `Mesh` (two unidirectional links per
// neighbouring pair, row-major link numbering), and `topo=rect` — the
// default of the scenario axis — routes on it directly. A `Topology` holds
// only what differs for the other networks: node/link enumeration, neighbor
// and link lookup, distances, the per-hop shortest-path continuations whose
// first element defines the canonical (XY-analogue) path, and the per-hop
// virtual-channel classes that make the deadlock-freedom argument go
// through. Validation and the result epilogue come from routing/, so the
// same scenario/exp/dist pipeline can sweep `topo=rect|torus|diag`:
//
//  * torus — the mesh plus wraparound links on both axes; distances are ring
//            distances, shortest paths take the minimal direction per axis
//            with pinned tie-breaks (East/South at exactly half an even
//            dimension), and the closed-form diameter/average-hop formulas
//            validate the implementation exactly (see torus_diameter /
//            torus_total_pair_hops).
//  * diag  — the diagonal mesh promoted from mesh/diagonal.cpp: the four
//            unidirectional diagonal link families on top of the rectangular
//            ones, Chebyshev distances, canonical paths diagonal-first.
//
// Link enumeration order is part of the determinism contract, exactly as for
// `Mesh`: per core (row-major), per direction in the topology's direction
// table. Every query with more than one legal answer returns candidates in a
// pinned order and documents the tie-break.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pamr/mesh/mesh.hpp"
#include "pamr/routing/path.hpp"

namespace pamr {
namespace topo {

enum class TopoKind : std::uint8_t { kRect = 0, kTorus, kDiag };

inline constexpr int kNumTopoKinds = 3;

/// Scenario-text names: "rect", "torus", "diag".
[[nodiscard]] const char* to_cstring(TopoKind kind) noexcept;

/// Parses the text name; returns false on an unknown one (leaving `out`
/// untouched).
[[nodiscard]] bool parse_topo_kind(std::string_view text, TopoKind& out) noexcept;

/// One unidirectional link. `dir` indexes the topology's direction table:
/// E, W, S, N (the LinkDir values) for rect and torus; those four followed
/// by SE, SW, NW, NE for the diagonal mesh.
struct TopoLink {
  Coord from;
  Coord to;
  std::int32_t dir = 0;
};

/// One legal continuation of a shortest path: the link to take and the core
/// it reaches.
struct TopoStep {
  LinkId link = kInvalidLink;
  Coord to;
};

class Topology {
 public:
  virtual ~Topology() = default;

  [[nodiscard]] TopoKind kind() const noexcept { return kind_; }
  [[nodiscard]] const char* name() const noexcept { return to_cstring(kind_); }
  [[nodiscard]] std::int32_t p() const noexcept { return p_; }
  [[nodiscard]] std::int32_t q() const noexcept { return q_; }
  [[nodiscard]] std::int32_t num_cores() const noexcept { return p_ * q_; }
  [[nodiscard]] std::int32_t num_links() const noexcept {
    return static_cast<std::int32_t>(links_.size());
  }

  [[nodiscard]] bool contains(Coord c) const noexcept {
    return c.u >= 0 && c.u < p_ && c.v >= 0 && c.v < q_;
  }
  [[nodiscard]] std::int32_t core_index(Coord c) const noexcept {
    return c.u * q_ + c.v;
  }
  [[nodiscard]] Coord core_coord(std::int32_t index) const noexcept {
    return {index / q_, index % q_};
  }

  [[nodiscard]] const TopoLink& link(LinkId id) const;
  [[nodiscard]] const std::vector<TopoLink>& links() const noexcept { return links_; }

  /// The link leaving `from` in direction `dir`, or kInvalidLink where the
  /// topology has none (mesh boundary; torus self-links on a dimension-1
  /// axis).
  [[nodiscard]] LinkId link_from(Coord from, std::int32_t dir) const;

  /// The first link (in direction order) from `from` to the neighbouring
  /// core `to`; CHECKs that one exists. On a dimension-2 torus axis two
  /// links connect the same pair — path construction therefore works with
  /// explicit TopoSteps, not core pairs; this lookup is a convenience for
  /// tests and diagnostics.
  [[nodiscard]] LinkId link_between(Coord from, Coord to) const;

  [[nodiscard]] std::string describe_link(LinkId id) const;

  /// Length of every shortest path from `a` to `b` (ring-Manhattan for
  /// torus, Chebyshev for diag).
  [[nodiscard]] virtual std::int32_t distance(Coord a, Coord b) const = 0;

  /// All steps from `at` that stay on a shortest path to `snk` (each reduces
  /// distance by exactly one), in a pinned order whose first element defines
  /// the canonical path. Empty iff at == snk. CHECKs in-bounds arguments.
  [[nodiscard]] virtual std::vector<TopoStep> next_steps(Coord at, Coord snk) const = 0;

  /// The topology's XY analogue: follow next_steps().front() until the sink.
  /// torus: minimal-direction XY with the pinned East/South tie-breaks;
  /// diag: diagonal steps first, then the straight remainder.
  [[nodiscard]] Path canonical_path(Coord src, Coord snk) const;

  /// Virtual-channel classes for deadlock freedom. Any shortest-path routing
  /// is deadlock-free when hop h of a path runs on VC class vc_classes(path)[h]:
  /// within one class every dependency strictly increases a potential, and
  /// class transitions only move up a fixed class order (see
  /// topo/validate.hpp's machine check). diag uses the 4 quadrant classes,
  /// as routing/deadlock.hpp does on the mesh; the torus uses quadrant ×
  /// (wrapped-u?, wrapped-v?) = 16 with a dateline-style class bump after
  /// each wrap link.
  [[nodiscard]] virtual std::int32_t num_vc_classes() const noexcept = 0;
  [[nodiscard]] virtual std::vector<std::int32_t> vc_classes(const Path& path) const = 0;

 protected:
  Topology(TopoKind kind, std::int32_t p, std::int32_t q, std::int32_t num_dirs);

  /// Registers the next link (ids are dense, in call order) and indexes it
  /// under (from, dir).
  void add_link(Coord from, std::int32_t dir, Coord to);

 private:
  TopoKind kind_;
  std::int32_t p_;
  std::int32_t q_;
  std::int32_t num_dirs_;
  std::vector<TopoLink> links_;
  std::vector<LinkId> link_of_core_dir_;  // num_cores × num_dirs
};

/// Builds the named topology; CHECKs positive dimensions. TopoKind::kRect
/// has no Topology: it CHECK-fails, since rect routes on `Mesh` itself.
[[nodiscard]] std::unique_ptr<const Topology> make_topology(TopoKind kind,
                                                            std::int32_t p,
                                                            std::int32_t q);

/// All-pairs distance summary, computed by BFS over the link graph — an
/// implementation-independent cross-check for the closed-form expectations.
struct DistanceStats {
  std::int32_t diameter = 0;
  std::int64_t total_hops = 0;  ///< Σ distance over ordered pairs (exact integer)

  [[nodiscard]] double average_hops(std::int32_t num_cores) const noexcept {
    const std::int64_t pairs =
        static_cast<std::int64_t>(num_cores) * (num_cores - 1);
    return pairs > 0 ? static_cast<double>(total_hops) / static_cast<double>(pairs)
                     : 0.0;
  }
};

[[nodiscard]] DistanceStats distance_stats(const Topology& topology);

/// Closed forms for the torus (ring distance per axis): the diameter is
/// ⌊p/2⌋ + ⌊q/2⌋, and the ordered-pair hop total follows from the per-ring
/// offset sums Σ_d min(d, n-d) = n²/4 (n even) or (n²-1)/4 (n odd). The
/// tests require exact integer equality between these and the BFS stats.
[[nodiscard]] constexpr std::int32_t torus_diameter(std::int32_t p,
                                                    std::int32_t q) noexcept {
  return p / 2 + q / 2;
}

[[nodiscard]] constexpr std::int64_t torus_total_pair_hops(std::int32_t p,
                                                           std::int32_t q) noexcept {
  const std::int64_t ring_u = (static_cast<std::int64_t>(p) * p - (p % 2 != 0)) / 4;
  const std::int64_t ring_v = (static_cast<std::int64_t>(q) * q - (q % 2 != 0)) / 4;
  // Per source: every u-offset sum counted once per column choice and vice
  // versa; times the p*q sources.
  return static_cast<std::int64_t>(p) * q * (ring_u * q + ring_v * p);
}

}  // namespace topo
}  // namespace pamr
