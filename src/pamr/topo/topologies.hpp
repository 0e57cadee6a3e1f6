// The concrete topologies behind topo::make_topology. Exposed as classes
// (rather than hidden behind the factory) so tests can pin
// implementation-specific contracts: the torus tie-break rules and the
// diagonal direction table.
#pragma once

#include "pamr/topo/topology.hpp"

namespace pamr {
namespace topo {

/// The p×q torus: the rectangular links plus wraparound on both axes. Links
/// are enumerated per core (row-major), per direction E, W, S, N — every
/// direction exists everywhere except along a dimension-1 axis (no
/// self-links); a dimension-2 axis keeps both directions as distinct
/// parallel links. Distances are ring distances per axis; shortest paths
/// take the minimal direction per axis, and at exactly half an even
/// dimension both directions are minimal — next_steps lists East before
/// West and South before North, which pins the canonical tie-breaks.
class TorusTopology final : public Topology {
 public:
  TorusTopology(std::int32_t p, std::int32_t q);

  [[nodiscard]] std::int32_t distance(Coord a, Coord b) const override;
  /// Pinned order: horizontal minimal direction(s) first (E before W), then
  /// vertical (S before N).
  [[nodiscard]] std::vector<TopoStep> next_steps(Coord at, Coord snk) const override;
  [[nodiscard]] std::int32_t num_vc_classes() const noexcept override { return 16; }
  /// Direction class (travel signs) × dateline wrap state: hop h runs on
  /// class dir + 4·(wrapped_u + 2·wrapped_v) counting wraps in hops strictly
  /// before h, so the wrap hop itself completes its monotone segment and the
  /// class order only ever increases along a path.
  [[nodiscard]] std::vector<std::int32_t> vc_classes(const Path& path) const override;

 private:
  [[nodiscard]] bool wraps(const TopoLink& link) const noexcept;
};

/// The diagonal mesh promoted from mesh/diagonal.cpp: the rectangular links
/// plus the four unidirectional diagonal families (SE, SW, NW, NE — the
/// quadrant directions). Direction table: E, W, S, N, SE, SW, NW, NE; links
/// enumerated per core (row-major) in that order. Distances are Chebyshev;
/// canonical paths take diagonal steps first, then the straight remainder.
class DiagTopology final : public Topology {
 public:
  /// Diagonal direction indices, offset past the four LinkDir values in
  /// quadrant order (kDirSE == 4 + int(Quadrant::kSE), …).
  static constexpr std::int32_t kDirSE = 4;
  static constexpr std::int32_t kDirSW = 5;
  static constexpr std::int32_t kDirNW = 6;
  static constexpr std::int32_t kDirNE = 7;

  DiagTopology(std::int32_t p, std::int32_t q);

  [[nodiscard]] std::int32_t distance(Coord a, Coord b) const override;
  /// Pinned order: the diagonal step toward the sink first (when both axes
  /// still differ), then the dominant-axis straight step.
  [[nodiscard]] std::vector<TopoStep> next_steps(Coord at, Coord snk) const override;
  [[nodiscard]] std::int32_t num_vc_classes() const noexcept override { return 4; }
  /// Every hop carries the flow's quadrant class: within a quadrant all
  /// shortest-path steps (the two straight ones and their diagonal) strictly
  /// increase the quadrant's potential, so each class is acyclic.
  [[nodiscard]] std::vector<std::int32_t> vc_classes(const Path& path) const override;
};

}  // namespace topo
}  // namespace pamr
