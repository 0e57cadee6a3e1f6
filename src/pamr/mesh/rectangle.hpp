// Oriented monotone rectangle of a communication.
//
// A Manhattan path from src to snk never leaves the axis-aligned bounding
// rectangle of {src, snk} and only ever steps in the two directions of the
// communication's quadrant. CommRect captures that sub-DAG: cells indexed
// by "depth" (L1 distance from src), the ≤2 feasible steps out of each
// cell, and the link cuts between consecutive depths. SG, IG, TB, PR, the
// lower bounds, the exact solver and the Frank–Wolfe optimizer all walk
// this structure instead of re-deriving the geometry.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "pamr/mesh/diagonal.hpp"
#include "pamr/mesh/mesh.hpp"

namespace pamr {

class CommRect {
 public:
  CommRect(const Mesh& mesh, Coord src, Coord snk);

  [[nodiscard]] const Mesh& mesh() const noexcept { return *mesh_; }
  [[nodiscard]] Coord src() const noexcept { return src_; }
  [[nodiscard]] Coord snk() const noexcept { return snk_; }
  [[nodiscard]] Quadrant quadrant() const noexcept { return quadrant_; }

  /// Absolute row/column extents and total path length (paper's ℓ_i).
  [[nodiscard]] std::int32_t du() const noexcept { return du_; }
  [[nodiscard]] std::int32_t dv() const noexcept { return dv_; }
  [[nodiscard]] std::int32_t length() const noexcept { return du_ + dv_; }

  [[nodiscard]] bool contains(Coord c) const noexcept;

  /// L1 distance from src; defined for cells inside the rectangle.
  [[nodiscard]] std::int32_t depth(Coord c) const noexcept;

  /// Offsets of a cell from src along the quadrant's step directions
  /// (a = rows advanced ∈ [0, du], b = columns advanced ∈ [0, dv]); false
  /// when `c` lies outside the rectangle. The inverse of cell().
  [[nodiscard]] bool cell_offsets(Coord c, std::int32_t& a,
                                  std::int32_t& b) const noexcept {
    return offsets(c, a, b);
  }

  /// The cell at offsets (a, b) from src; callers pass offsets in range.
  [[nodiscard]] Coord cell(std::int32_t a, std::int32_t b) const noexcept {
    return cell_at(a, b);
  }

  /// Number of cells at depth t (no allocation).
  [[nodiscard]] std::int32_t width_at_depth(std::int32_t t) const noexcept;

  struct Step {
    LinkId link = kInvalidLink;
    Coord to;
  };

  /// The ≤2 monotone steps out of a cell, held by value: vertical first,
  /// then horizontal.
  class Steps {
   public:
    void push_back(const Step& step) noexcept { items_[size_++] = step; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] const Step& operator[](std::size_t i) const noexcept { return items_[i]; }
    [[nodiscard]] const Step& front() const noexcept { return items_[0]; }
    [[nodiscard]] const Step* begin() const noexcept { return items_.data(); }
    [[nodiscard]] const Step* end() const noexcept { return items_.data() + size_; }

   private:
    std::array<Step, 2> items_{};
    std::size_t size_ = 0;
  };

  /// The ≤2 monotone steps from `c` that remain inside the rectangle
  /// (vertical first, then horizontal, for deterministic iteration order).
  /// Defined inline: SG and IG ask for it at every hop.
  [[nodiscard]] Steps next_steps(Coord c) const {
    Steps steps;
    std::int32_t a = 0;
    std::int32_t b = 0;
    if (!offsets(c, a, b)) return steps;
    if (a < du_) {
      const Coord to = cell_at(a + 1, b);
      steps.push_back(Step{mesh_->link_between(c, to), to});
    }
    if (b < dv_) {
      const Coord to = cell_at(a, b + 1);
      steps.push_back(Step{mesh_->link_between(c, to), to});
    }
    return steps;
  }

  /// Visits the cut from depth t to depth t+1 in place, as
  /// `visit(Coord from, const Step& step)`: cells by ascending row offset,
  /// each cell's vertical step before its horizontal one — the
  /// per-communication cut of IG's virtual pre-routing and of PR. Nothing
  /// is visited for t outside [0, length()).
  template <class Visit>
  void visit_cut(std::int32_t t, Visit&& visit) const {
    if (t < 0 || t >= length()) return;
    const std::int32_t a_lo = t > dv_ ? t - dv_ : 0;
    const std::int32_t a_hi = t < du_ ? t : du_;
    for (std::int32_t a = a_lo; a <= a_hi; ++a) {
      const std::int32_t b = t - a;
      const Coord from = cell_at(a, b);
      if (a < du_) {
        const Coord to = cell_at(a + 1, b);
        visit(from, Step{mesh_->link_between(from, to), to});
      }
      if (b < dv_) {
        const Coord to = cell_at(a, b + 1);
        visit(from, Step{mesh_->link_between(from, to), to});
      }
    }
  }

  /// Number of links in cut t (closed form: cells at depth t each contribute
  /// their in-rectangle steps).
  [[nodiscard]] std::int32_t cut_size(std::int32_t t) const noexcept;

 private:
  /// Offset of a cell from src along the quadrant's step directions:
  /// a = rows advanced (0..du), b = columns advanced (0..dv).
  [[nodiscard]] bool offsets(Coord c, std::int32_t& a, std::int32_t& b) const noexcept {
    // With a zero step sign the rectangle is degenerate along that axis and
    // the offset must be zero.
    const std::int32_t raw_a = su_ != 0 ? (c.u - src_.u) * su_ : c.u - src_.u;
    const std::int32_t raw_b = sv_ != 0 ? (c.v - src_.v) * sv_ : c.v - src_.v;
    if (raw_a < 0 || raw_a > du_ || raw_b < 0 || raw_b > dv_) return false;
    a = raw_a;
    b = raw_b;
    return true;
  }
  [[nodiscard]] Coord cell_at(std::int32_t a, std::int32_t b) const noexcept {
    return {src_.u + su_ * a, src_.v + sv_ * b};
  }

  const Mesh* mesh_;
  Coord src_;
  Coord snk_;
  Quadrant quadrant_;
  std::int32_t du_;
  std::int32_t dv_;
  std::int32_t su_;  ///< row step sign (-1, 0, +1)
  std::int32_t sv_;  ///< column step sign
};

}  // namespace pamr
