#include "pamr/opt/path_enum.hpp"

#include <limits>
#include <unordered_map>

#include "pamr/util/assert.hpp"

namespace pamr {

std::uint64_t count_manhattan_paths(std::int32_t du, std::int32_t dv) noexcept {
  // C(du+dv, min) with overflow saturation.
  const std::uint64_t n = static_cast<std::uint64_t>(du) + static_cast<std::uint64_t>(dv);
  const std::uint64_t k = static_cast<std::uint64_t>(du < dv ? du : dv);
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t numerator = n - k + i;
    // result * numerator may overflow; detect via division.
    if (result > std::numeric_limits<std::uint64_t>::max() / numerator) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    result = result * numerator / i;
  }
  return result;
}

namespace {

void enumerate_recursive(const CommRect& rect, Coord at, std::vector<Coord>& prefix,
                         std::vector<Path>& out) {
  if (at == rect.snk()) {
    out.push_back(path_from_cores(rect.mesh(), prefix));
    return;
  }
  for (const CommRect::Step& step : rect.next_steps(at)) {
    prefix.push_back(step.to);
    enumerate_recursive(rect, step.to, prefix, out);
    prefix.pop_back();
  }
}

}  // namespace

std::vector<Path> enumerate_manhattan_paths(const CommRect& rect, std::uint64_t limit) {
  const std::uint64_t count = count_manhattan_paths(rect.du(), rect.dv());
  PAMR_CHECK(count <= limit, "path enumeration would produce " + std::to_string(count) +
                                 " paths (limit " + std::to_string(limit) + ")");
  std::vector<Path> out;
  out.reserve(static_cast<std::size_t>(count));
  std::vector<Coord> prefix{rect.src()};
  enumerate_recursive(rect, rect.src(), prefix, out);
  PAMR_ASSERT(out.size() == count);
  return out;
}

Path min_cost_manhattan_path(const CommRect& rect, const LinkCostFn& cost) {
  const Mesh& mesh = rect.mesh();
  // value[cell] = min cost from cell to snk; choice[cell] = best next step.
  // Cells are keyed by core index; only rectangle cells are touched.
  // pamr-lint: ordered-ok (lookup only: find by cell, never iterated)
  std::unordered_map<std::int32_t, double> value;
  // pamr-lint: ordered-ok (lookup only: the path walk reads one cell per step)
  std::unordered_map<std::int32_t, CommRect::Step> choice;
  value[mesh.core_index(rect.snk())] = 0.0;

  for (std::int32_t t = rect.length() - 1; t >= 0; --t) {
    // The cut lists each cell's steps together, vertical first, so a cell's
    // running minimum sees them in next_steps order.
    rect.visit_cut(t, [&](Coord cell, const CommRect::Step& step) {
      const auto it = value.find(mesh.core_index(step.to));
      PAMR_ASSERT(it != value.end());
      const double total = cost(step.link) + it->second;
      const std::int32_t key = mesh.core_index(cell);
      double& best = value.try_emplace(key, std::numeric_limits<double>::infinity())
                         .first->second;
      CommRect::Step& best_step = choice[key];
      // Strict '<': exact ties resolve to the vertical step deterministically.
      if (total < best) {
        best = total;
        best_step = step;
      }
    });
  }

  Path path;
  path.src = rect.src();
  path.snk = rect.snk();
  Coord at = rect.src();
  while (at != rect.snk()) {
    const CommRect::Step& step = choice.at(mesh.core_index(at));
    path.links.push_back(step.link);
    at = step.to;
  }
  return path;
}

}  // namespace pamr
