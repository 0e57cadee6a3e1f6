// LinkLoads accounting contracts and the LoadCost boundary suite.
//
// The negative-load clamp in LinkLoads::add used to be silent: any
// incremental-index accounting bug that drove a load negative was rounded
// up to zero and disappeared. It now throws at every check level for
// anything beyond float-cancellation noise; these tests pin both halves of
// that contract. The LoadCost tests pin the cost function exactly at the
// feasibility boundary — the last discrete level, one ULP above it, the
// capacity.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "pamr/mesh/mesh.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/rng.hpp"

namespace pamr {
namespace {

// ---------------------------------------------------- negative-load clamp --

TEST(LinkLoadsAdd, TinyNegativeResidueClampsToZero) {
  LinkLoads loads(4);
  loads.add(LinkId{1}, 3.0);
  // Remove-then-readd cancellation can leave residue below one part in 1e6
  // Mb/s; that is noise, not a bug — clamp, don't throw.
  loads.add(LinkId{1}, -3.0 - 1e-9);
  EXPECT_EQ(loads.load(LinkId{1}), 0.0);
}

TEST(LinkLoadsAdd, GenuinelyNegativeLoadThrowsAtEveryCheckLevel) {
  // -1e-3 is three orders of magnitude past the residue tolerance: that is
  // an incremental accounting bug, and PAMR_CHECK throws regardless of
  // PAMR_CHECK_LEVEL (this test is in the level-0, 1 and 2 CI builds).
  LinkLoads loads(4);
  loads.add(LinkId{2}, 1.0);
  EXPECT_THROW(loads.add(LinkId{2}, -1.0 - 1e-3), CheckError);
}

TEST(LinkLoadsAdd, ExactCancellationStaysZeroWithoutThrowing) {
  LinkLoads loads(2);
  for (int round = 0; round < 100; ++round) {
    loads.add(LinkId{0}, 17.25);
    loads.add(LinkId{0}, -17.25);
  }
  EXPECT_EQ(loads.load(LinkId{0}), 0.0);
}

// ------------------------------------------------- LoadCost at boundaries --

TEST(LoadCostBoundary, ExactlyAtEachDiscreteLevelCostsThatLevel) {
  const PowerModel model = PowerModel::paper_discrete();
  const LoadCost cost(model);
  for (const double frequency : model.table()->frequencies()) {
    EXPECT_EQ(cost(frequency), *model.link_power(frequency))
        << "at level " << frequency;
  }
}

TEST(LoadCostBoundary, OneUlpAboveAnInnerLevelQuantizesToTheNextLevel) {
  const PowerModel model = PowerModel::paper_discrete();
  const LoadCost cost(model);
  const auto& frequencies = model.table()->frequencies();
  ASSERT_GE(frequencies.size(), 2u);
  for (std::size_t level = 0; level + 1 < frequencies.size(); ++level) {
    const double just_above =
        std::nextafter(frequencies[level], std::numeric_limits<double>::infinity());
    EXPECT_EQ(cost(just_above), *model.link_power(frequencies[level + 1]))
        << "above level " << frequencies[level];
  }
}

TEST(LoadCostBoundary, AtCapacityIsFeasibleOneUlpAboveIsPenalized) {
  const PowerModel model = PowerModel::paper_discrete();
  const LoadCost cost(model);
  const double capacity = model.capacity();
  ASSERT_EQ(capacity, model.table()->frequencies().back())
      << "discrete capacity is the top table frequency";
  // At capacity: the top level's exact power, no penalty.
  EXPECT_EQ(cost(capacity), *model.link_power(capacity));
  // One ULP above: the penalty branch — strictly above every feasible cost.
  const double just_above =
      std::nextafter(capacity, std::numeric_limits<double>::infinity());
  EXPECT_GT(cost(just_above), cost(capacity));
}

TEST(LoadCostBoundary, PenaltyBranchIsContinuousAtCapacity) {
  // The overload extension p_leak + p0·(load·unit)^α + 1e4·(load − capacity)
  // meets the top-level cost at load → capacity⁺: the descent never sees a
  // cliff it could exploit, only the steep linear slope.
  const PowerModel model = PowerModel::paper_discrete();
  const LoadCost cost(model);
  const double capacity = model.capacity();
  const double just_above =
      std::nextafter(capacity, std::numeric_limits<double>::infinity());
  // Tolerance: one ULP of overload costs 1e4·ulp(capacity) ≈ 5e-9 mW of
  // penalty on top of the dynamic curve's own rounding.
  EXPECT_NEAR(cost(just_above), cost(capacity), 1e-8);
  // And the slope is the documented 1e4 mW per Mb/s of overload (the
  // dynamic term's growth is negligible at +1 Mb/s next to the penalty).
  EXPECT_NEAR(cost(capacity + 1.0) - cost(capacity), 1e4, 1.0);
}

TEST(LoadCostBoundary, FeasibleLoadsMatchPowerModelExactly) {
  const PowerModel model = PowerModel::paper_discrete();
  const LoadCost cost(model);
  Rng rng(0xC057);
  for (int i = 0; i < 500; ++i) {
    const double load = rng.uniform(1e-3, model.capacity());
    EXPECT_EQ(cost(load), *model.link_power(load)) << "load " << load;
  }
  EXPECT_EQ(cost(0.0), 0.0);
  EXPECT_EQ(cost(-5.0), 0.0);
}

TEST(LoadCostBoundary, ContinuousModelMatchesPowerModelExactly) {
  const PowerModel model = PowerModel::theory();
  const LoadCost cost(model);
  Rng rng(0xC058);
  for (int i = 0; i < 200; ++i) {
    const double load = rng.uniform(1e-3, 1e6);
    EXPECT_EQ(cost(load), *model.link_power(load)) << "load " << load;
  }
}

}  // namespace
}  // namespace pamr
