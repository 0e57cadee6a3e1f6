// Measurement output of the NoC simulator.
#pragma once

#include <cstdint>
#include <vector>

namespace pamr {
namespace sim {

struct SubflowStats {
  std::int64_t offered_flits = 0;    ///< generated by the traffic source (post-warmup)
  std::int64_t injected_flits = 0;   ///< entered the network (post-warmup)
  std::int64_t delivered_flits = 0;  ///< ejected at the sink (post-warmup)
  std::int64_t delivered_packets = 0;
  double latency_sum = 0.0;          ///< cycles, summed over delivered flits
  std::int64_t backlog = 0;          ///< flits still in the source queue at the end

  [[nodiscard]] double mean_latency() const noexcept {
    return delivered_flits > 0
               ? latency_sum / static_cast<double>(delivered_flits)
               : 0.0;
  }
};

struct SimStats {
  std::int64_t measured_cycles = 0;  ///< cycles after warmup
  double flit_mbps = 0.0;            ///< bandwidth one flit/cycle represents
  std::vector<SubflowStats> per_subflow;
  std::vector<std::int64_t> link_busy_cycles;  ///< indexed by LinkId

  /// Delivered bandwidth of one subflow in Mb/s.
  [[nodiscard]] double delivered_mbps(std::size_t subflow) const;

  /// Fraction of measured cycles the link carried a flit (≈ load/capacity
  /// for a valid routing).
  [[nodiscard]] double link_utilization(std::size_t link) const;

  /// Σ delivered / Σ offered over all subflows (1.0 = everything the
  /// sources generated was delivered; an overloaded routing backlogs and
  /// scores < 1).
  [[nodiscard]] double delivery_ratio() const noexcept;
};

}  // namespace sim
}  // namespace pamr
