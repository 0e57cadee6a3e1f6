// Deterministic re-aggregation of distributed unit results.
//
// Workers finish units in whatever order the OS schedules them; the merger
// buffers each unit's chunk aggregate and folds them *in canonical unit
// order* (the plan's enumeration: scenario-major, point-major, chunk-major)
// once the campaign is complete. That is the identical fold the in-process
// SuiteRunner performs over its parallel_for partials, so a 2-worker
// campaign reproduces a 1-thread run bit-for-bit — same Welford rounding
// history, same CSV bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pamr/dist/protocol.hpp"
#include "pamr/exp/metrics.hpp"
#include "pamr/scenario/suite_runner.hpp"

namespace pamr {
namespace dist {

class ResultMerger {
 public:
  explicit ResultMerger(const CampaignPlan& plan);

  /// Records one unit's aggregate (wire form). Rejects unknown ids,
  /// duplicates, unparsable aggregates, and instance-count mismatches.
  [[nodiscard]] bool add(std::uint64_t unit_id, std::string_view aggregate,
                         std::string& error);

  [[nodiscard]] bool complete() const noexcept { return have_ == parts_.size(); }
  [[nodiscard]] std::size_t units_total() const noexcept { return parts_.size(); }

  /// The parsed partial of one recorded unit (for streaming rows).
  [[nodiscard]] const exp::PointAggregate& partial(std::uint64_t unit_id) const;

  /// Folds all units in canonical order. CHECKs complete().
  [[nodiscard]] std::vector<scenario::ScenarioResult> merge() const;

 private:
  const CampaignPlan* plan_;
  std::vector<exp::PointAggregate> parts_;
  std::vector<char> present_;
  std::size_t have_ = 0;
};

}  // namespace dist
}  // namespace pamr
