// Per-instance and per-point metrics of the §6 simulation campaign.
//
// For every random instance the paper runs the six policies and BEST (the
// per-instance winner), then plots per heuristic:
//   * the normalized power inverse — (1/P_h)/(1/P_BEST), 0 on failure;
//   * the failure ratio — fraction of instances with no valid routing.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>

#include "pamr/routing/router.hpp"
#include "pamr/util/stats.hpp"

namespace pamr {
namespace exp {

/// The seven plotted series, in the paper's legend order.
inline constexpr std::size_t kNumSeries = kNumBaseRouters + 1;
inline constexpr std::size_t kBestSeries = kNumBaseRouters;  ///< index of BEST

[[nodiscard]] const char* series_name(std::size_t series) noexcept;

/// One heuristic's outcome on one instance (routings are dropped — the
/// campaign only aggregates scalars).
struct HeuristicSample {
  bool valid = false;
  double power = 0.0;
  double static_power = 0.0;
  double elapsed_ms = 0.0;

  [[nodiscard]] double inverse_power() const noexcept {
    return valid && power > 0.0 ? 1.0 / power : 0.0;
  }
};

/// Outcome of the optional cycle-level simulation probe of one instance
/// (sim:: run on the BEST routing when the scenario asks for it). `ran` is
/// false when the probe was disabled or no valid routing existed to drive.
struct SimSample {
  bool ran = false;
  double latency_cycles = 0.0;   ///< mean flit latency over delivered flits
  double delivery = 0.0;         ///< Σ delivered / Σ offered flits
  double throughput_mbps = 0.0;  ///< aggregate delivered bandwidth
};

struct InstanceSample {
  std::array<HeuristicSample, kNumSeries> series;  ///< six policies + BEST
  SimSample sim;                                   ///< open-loop injection probe
  /// Proven infeasible before routing: every series failed, none ran, so
  /// the zero elapsed times are not runtimes.
  bool certified = false;
};

[[nodiscard]] InstanceSample make_instance_sample(
    const std::array<HeuristicSample, kNumBaseRouters>& base);

/// Aggregates over the instances of one plotted point.
struct PointAggregate {
  std::array<RunningStats, kNumSeries> normalized_inverse;  ///< per series
  std::array<std::size_t, kNumSeries> failures{};
  std::array<RunningStats, kNumSeries> elapsed_ms;  ///< routed instances only
  std::array<RunningStats, kNumSeries> inverse_power;  ///< absolute 1/P (0 on failure)
  RunningStats static_fraction;  ///< static/total of BEST, valid instances only
  // Simulation probe aggregates (instances where the probe ran only; their
  // shared count() is the number of simulated instances).
  RunningStats sim_latency;     ///< mean flit latency, cycles
  RunningStats sim_delivery;    ///< delivery ratio in [0, 1]
  RunningStats sim_throughput;  ///< delivered Mb/s
  std::size_t instances = 0;

  void add(const InstanceSample& sample);
  void merge(const PointAggregate& other);

  [[nodiscard]] double failure_ratio(std::size_t series) const;
  /// Instances certified infeasible, i.e. not routed.
  [[nodiscard]] std::size_t certified() const noexcept {
    return instances - elapsed_ms[kBestSeries].count();
  }
};

// -- Wire form --------------------------------------------------------------
//
// The distributed runner ships chunk aggregates between processes and
// journals them on disk, so the merged campaign must reconstruct *exactly*
// the accumulator a single process would have built. The text form is one
// line of space-separated key=value tokens whose doubles are IEEE-754 bit
// patterns in hex: parse(serialize(a)) equals `a` bit-for-bit, independent
// of locale, printf precision, or libc rounding.

[[nodiscard]] std::string serialize_point_aggregate(const PointAggregate& aggregate);

/// Parses serialize_point_aggregate's form. On failure returns false and
/// sets `error` (leaving `out` untouched).
[[nodiscard]] bool parse_point_aggregate(std::string_view text, PointAggregate& out,
                                         std::string& error);

}  // namespace exp
}  // namespace pamr
