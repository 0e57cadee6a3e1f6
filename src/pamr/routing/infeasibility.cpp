#include "pamr/routing/infeasibility.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace pamr {

namespace {

// Allowed first-/last-hop directions of a communication, as a bit mask.
constexpr unsigned kEastBit = 1;
constexpr unsigned kWestBit = 2;
constexpr unsigned kSouthBit = 4;
constexpr unsigned kNorthBit = 8;
constexpr std::size_t kNumMasks = 16;

struct Limits {
  OverloadLimit link;  ///< the most one link may carry
  double heavy;        ///< half of it: two weights above it never share a link

  explicit Limits(const PowerModel& model) noexcept
      : link(model), heavy(0.5 * link.per_link()) {}

  /// True when `weight` (of which `heavies` are heavy) cannot fit on
  /// `links` links.
  [[nodiscard]] bool exceeded(double weight, std::int32_t heavies,
                              std::int32_t links) const noexcept {
    return link.exceeded(weight, links) || heavies > links;
  }
};

/// Index of the lane interval [lo, hi] in a triangular per-cut table.
constexpr std::size_t interval_cell(std::int32_t lo, std::int32_t hi) noexcept {
  return static_cast<std::size_t>(hi) * static_cast<std::size_t>(hi + 1) / 2 +
         static_cast<std::size_t>(lo);
}

/// One direction of travel across one axis's cuts: per cut, the weight
/// and heavy count of its crossings, in total and by lane interval.
struct Family {
  std::int32_t cuts = 0;
  std::int32_t lanes = 0;
  std::size_t cells = 0;  ///< lane intervals per cut
  std::vector<double> cut_weight;
  std::vector<std::int32_t> cut_heavies;
  std::vector<double> interval_weight;  ///< [cut · cells + interval_cell(lo, hi)]
  std::vector<std::int32_t> interval_heavies;

  void reset(std::int32_t num_cuts, std::int32_t num_lanes) {
    cuts = num_cuts;
    lanes = num_lanes;
    cells = interval_cell(0, num_lanes);
    cut_weight.assign(static_cast<std::size_t>(cuts), 0.0);
    cut_heavies.assign(static_cast<std::size_t>(cuts), 0);
    interval_weight.assign(static_cast<std::size_t>(cuts) * cells, 0.0);
    interval_heavies.assign(static_cast<std::size_t>(cuts) * cells, 0);
  }

  /// A communication crossing cuts [first, last), each on a lane in [lo, hi].
  void add(std::int32_t first, std::int32_t last, std::int32_t lo, std::int32_t hi,
           double weight, bool heavy) {
    const std::int32_t heavies = heavy ? 1 : 0;
    for (std::int32_t cut = first; cut < last; ++cut) {
      const auto c = static_cast<std::size_t>(cut);
      cut_weight[c] += weight;
      cut_heavies[c] += heavies;
      interval_weight[c * cells + interval_cell(lo, hi)] += weight;
      interval_heavies[c * cells + interval_cell(lo, hi)] += heavies;
    }
  }

  /// (a) on one cut: every lane range [a, b] carries the crossings whose
  /// lane interval it contains. Only ranges narrower than the fewest links
  /// that hold the whole cut can fail.
  [[nodiscard]] bool cut_violated(std::int32_t cut, const Limits& limits,
                                  std::vector<double>& span_weight,
                                  std::vector<std::int32_t>& span_heavies) const {
    const auto c = static_cast<std::size_t>(cut);
    std::int32_t fits = 1;
    while (fits <= lanes && limits.exceeded(cut_weight[c], cut_heavies[c], fits)) ++fits;
    if (fits == 1) return false;
    const double* weight = interval_weight.data() + c * cells;
    const std::int32_t* heavies = interval_heavies.data() + c * cells;
    // Before lane b, span[a] holds the intervals inside [a, b−1]; adding
    // the intervals [lo, b] with lo ≥ a extends it to [a, b].
    std::fill_n(span_weight.begin(), lanes, 0.0);
    std::fill_n(span_heavies.begin(), lanes, 0);
    for (std::int32_t b = 0; b < lanes; ++b) {
      const std::size_t column_cell = interval_cell(0, b);
      double column = 0.0;
      std::int32_t column_heavies = 0;
      for (std::int32_t a = b; a >= 0 && b - a + 1 < fits; --a) {
        const auto lane = static_cast<std::size_t>(a);
        column += weight[column_cell + lane];
        column_heavies += heavies[column_cell + lane];
        span_weight[lane] += column;
        span_heavies[lane] += column_heavies;
        if (limits.exceeded(span_weight[lane], span_heavies[lane], b - a + 1)) {
          return true;
        }
      }
    }
    return false;
  }
};

/// The communications leaving (or entering) one core, by allowed-direction
/// mask.
struct EndTally {
  std::array<double, kNumMasks> weight{};
  std::array<std::int32_t, kNumMasks> heavies{};
};

/// (b): for every direction set D, the communications confined to D fit on
/// |D| links. Sets whose link count holds the end's whole tally pass.
bool end_violated(const EndTally& end, double total, std::int32_t total_heavies,
                  const Limits& limits) {
  for (unsigned set = 1; set < kNumMasks; ++set) {
    if (!limits.exceeded(total, total_heavies, std::popcount(set))) continue;
    double weight = 0.0;
    std::int32_t heavies = 0;
    for (unsigned mask = set; mask != 0; mask = (mask - 1) & set) {
      weight += end.weight[mask];
      heavies += end.heavies[mask];
    }
    if (limits.exceeded(weight, heavies, std::popcount(set))) return true;
  }
  return false;
}

/// Per-thread scratch, grown to the largest instance seen and reused.
struct Scratch {
  std::array<Family, 4> families;      ///< east, west (vertical cuts), south, north
  std::vector<double> end_weight;      ///< by (side, core): side 0 sources, 1 sinks
  std::vector<std::int32_t> end_heavies;
  std::vector<std::int32_t> end_tally;  ///< (side, core) → index into tallies, or -1
  std::vector<EndTally> tallies;       ///< ends that exceed one link only
  std::vector<double> span_weight;     ///< cut sweep, by lane
  std::vector<std::int32_t> span_heavies;
};

/// Allowed first-hop (= last-hop) directions of a communication.
unsigned direction_mask(const Communication& comm) noexcept {
  unsigned mask = 0;
  if (comm.snk.v != comm.src.v) mask |= comm.snk.v > comm.src.v ? kEastBit : kWestBit;
  if (comm.snk.u != comm.src.u) mask |= comm.snk.u > comm.src.u ? kSouthBit : kNorthBit;
  return mask;
}

}  // namespace

bool no_feasible_manhattan_routing(const Mesh& mesh, const CommSet& comms,
                                   const PowerModel& model) {
  const Limits limits(model);

  thread_local Scratch s;
  // Vertical cuts separate columns (q−1 of them, one lane per row);
  // horizontal cuts separate rows (p−1, one lane per column).
  s.families[0].reset(mesh.q() - 1, mesh.p());
  s.families[1].reset(mesh.q() - 1, mesh.p());
  s.families[2].reset(mesh.p() - 1, mesh.q());
  s.families[3].reset(mesh.p() - 1, mesh.q());
  const auto cores = static_cast<std::size_t>(mesh.num_cores());
  s.end_weight.assign(2 * cores, 0.0);
  s.end_heavies.assign(2 * cores, 0);
  const auto widest = static_cast<std::size_t>(std::max(mesh.p(), mesh.q()));
  if (s.span_weight.size() < widest) {
    s.span_weight.resize(widest);
    s.span_heavies.resize(widest);
  }

  const auto source_end = [&](const Communication& comm) {
    return static_cast<std::size_t>(mesh.core_index(comm.src));
  };
  const auto sink_end = [&](const Communication& comm) {
    return cores + static_cast<std::size_t>(mesh.core_index(comm.snk));
  };
  for (const Communication& comm : comms) {
    if (limits.link.exceeded(comm.weight)) return true;  // (c)
    const bool heavy = comm.weight > limits.heavy;
    const Coord src = comm.src;
    const Coord snk = comm.snk;
    const std::int32_t u_lo = std::min(src.u, snk.u);
    const std::int32_t u_hi = std::max(src.u, snk.u);
    const std::int32_t v_lo = std::min(src.v, snk.v);
    const std::int32_t v_hi = std::max(src.v, snk.v);
    if (v_lo != v_hi) {
      s.families[snk.v > src.v ? 0 : 1].add(v_lo, v_hi, u_lo, u_hi, comm.weight, heavy);
    }
    if (u_lo != u_hi) {
      s.families[snk.u > src.u ? 2 : 3].add(u_lo, u_hi, v_lo, v_hi, comm.weight, heavy);
    }
    for (const std::size_t end : {source_end(comm), sink_end(comm)}) {
      s.end_weight[end] += comm.weight;
      s.end_heavies[end] += heavy ? 1 : 0;
    }
  }

  // (b), on the ends whose tally does not fit on one link.
  s.end_tally.assign(2 * cores, -1);
  s.tallies.clear();
  for (std::size_t end = 0; end < 2 * cores; ++end) {
    if (!limits.exceeded(s.end_weight[end], s.end_heavies[end], 1)) continue;
    s.end_tally[end] = static_cast<std::int32_t>(s.tallies.size());
    s.tallies.emplace_back();
  }
  if (!s.tallies.empty()) {
    for (const Communication& comm : comms) {
      const unsigned mask = direction_mask(comm);
      const std::int32_t heavies = comm.weight > limits.heavy ? 1 : 0;
      for (const std::size_t end : {source_end(comm), sink_end(comm)}) {
        if (s.end_tally[end] < 0) continue;
        EndTally& tally = s.tallies[static_cast<std::size_t>(s.end_tally[end])];
        tally.weight[mask] += comm.weight;
        tally.heavies[mask] += heavies;
      }
    }
    for (std::size_t end = 0; end < 2 * cores; ++end) {
      if (s.end_tally[end] < 0) continue;
      if (end_violated(s.tallies[static_cast<std::size_t>(s.end_tally[end])],
                       s.end_weight[end], s.end_heavies[end], limits)) {
        return true;  // (b)
      }
    }
  }

  for (const Family& family : s.families) {
    for (std::int32_t cut = 0; cut < family.cuts; ++cut) {
      if (family.cut_violated(cut, limits, s.span_weight, s.span_heavies)) {
        return true;  // (a)
      }
    }
  }
  return false;
}

}  // namespace pamr
