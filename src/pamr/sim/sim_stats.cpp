#include "pamr/sim/sim_stats.hpp"

#include "pamr/util/assert.hpp"

namespace pamr {
namespace sim {

double SimStats::delivered_mbps(std::size_t subflow) const {
  PAMR_CHECK(subflow < per_subflow.size(), "subflow index out of range");
  if (measured_cycles == 0) return 0.0;
  return static_cast<double>(per_subflow[subflow].delivered_flits) /
         static_cast<double>(measured_cycles) * flit_mbps;
}

double SimStats::link_utilization(std::size_t link) const {
  PAMR_CHECK(link < link_busy_cycles.size(), "link index out of range");
  if (measured_cycles == 0) return 0.0;
  return static_cast<double>(link_busy_cycles[link]) /
         static_cast<double>(measured_cycles);
}

double SimStats::delivery_ratio() const noexcept {
  std::int64_t offered = 0;
  std::int64_t delivered = 0;
  for (const SubflowStats& stats : per_subflow) {
    offered += stats.offered_flits;
    delivered += stats.delivered_flits;
  }
  return offered > 0
             ? static_cast<double>(delivered) / static_cast<double>(offered)
             : 1.0;
}

}  // namespace sim
}  // namespace pamr
