// Streaming statistics used by the experiment harness.
//
// Campaign points aggregate tens of thousands of per-instance metrics; we
// keep O(1) state per series with Welford's numerically stable algorithm.
#pragma once

#include <cstddef>
#include <vector>

namespace pamr {

/// Welford online mean/variance accumulator. Mergeable (Chan et al.) so that
/// per-thread accumulators can be combined after a parallel_for.
class RunningStats {
 public:
  /// The raw accumulator words. Exposed so aggregates can cross process
  /// boundaries (the distributed runner serializes them bit-exactly) —
  /// from_state(state()) reconstructs *this* exactly, including the
  /// rounding history that mean()/variance() alone would lose.
  struct State {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;

    friend bool operator==(const State&, const State&) = default;
  };

  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] State state() const noexcept { return {n_, mean_, m2_, min_, max_}; }
  [[nodiscard]] static RunningStats from_state(const State& s) noexcept {
    RunningStats stats;
    stats.n_ = s.n;
    stats.mean_ = s.mean;
    stats.m2_ = s.m2;
    stats.min_ = s.min;
    stats.max_ = s.max;
    return stats;
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

  /// Half-width of the ~95% normal-approximation confidence interval of the
  /// mean (1.96 σ/√n). Returns 0 for fewer than two samples.
  [[nodiscard]] double ci95_halfwidth() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact mean of a vector (pairwise summation for accuracy on long series).
[[nodiscard]] double mean_of(const std::vector<double>& xs) noexcept;

/// Exact median (copies and nth_element's).
[[nodiscard]] double median_of(std::vector<double> xs) noexcept;

}  // namespace pamr
