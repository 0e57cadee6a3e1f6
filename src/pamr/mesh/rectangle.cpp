#include "pamr/mesh/rectangle.hpp"

#include <algorithm>

#include "pamr/util/assert.hpp"

namespace pamr {

CommRect::CommRect(const Mesh& mesh, Coord src, Coord snk)
    : mesh_(&mesh),
      src_(src),
      snk_(snk),
      quadrant_(quadrant_of(src, snk)),
      du_(src.u > snk.u ? src.u - snk.u : snk.u - src.u),
      dv_(src.v > snk.v ? src.v - snk.v : snk.v - src.v),
      su_(sign_of(snk.u - src.u)),
      sv_(sign_of(snk.v - src.v)) {
  PAMR_CHECK(mesh.contains(src) && mesh.contains(snk),
             "communication endpoints outside mesh");
}

bool CommRect::contains(Coord c) const noexcept {
  std::int32_t a = 0;
  std::int32_t b = 0;
  return offsets(c, a, b);
}

std::int32_t CommRect::depth(Coord c) const noexcept {
  std::int32_t a = 0;
  std::int32_t b = 0;
  if (!offsets(c, a, b)) return -1;
  return a + b;
}

std::int32_t CommRect::width_at_depth(std::int32_t t) const noexcept {
  if (t < 0 || t > length()) return 0;
  const std::int32_t a_lo = std::max<std::int32_t>(0, t - dv_);
  const std::int32_t a_hi = std::min(du_, t);
  return a_hi - a_lo + 1;
}

std::int32_t CommRect::cut_size(std::int32_t t) const noexcept {
  if (t < 0 || t >= length()) return 0;
  const std::int32_t a_lo = std::max<std::int32_t>(0, t - dv_);
  const std::int32_t a_hi = std::min(du_, t);
  std::int32_t count = 0;
  for (std::int32_t a = a_lo; a <= a_hi; ++a) {
    if (a < du_) ++count;       // vertical step available
    if (t - a < dv_) ++count;   // horizontal step available
  }
  return count;
}

}  // namespace pamr
