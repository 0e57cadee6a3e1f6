#include "pamr/util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace pamr {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n_total = n_ + other.n_;
  const double delta = other.mean_ - mean_;
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double nt = static_cast<double>(n_total);
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = n_total;
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::ci95_halfwidth() const noexcept {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double mean_of(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  // Pairwise summation: O(log n) error growth instead of O(n).
  struct Pairwise {
    static double sum(const double* data, std::size_t n) {
      if (n <= 8) {
        double s = 0.0;
        for (std::size_t i = 0; i < n; ++i) s += data[i];
        return s;
      }
      const std::size_t half = n / 2;
      return sum(data, half) + sum(data + half, n - half);
    }
  };
  return Pairwise::sum(xs.data(), xs.size()) / static_cast<double>(xs.size());
}

double median_of(std::vector<double> xs) noexcept {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid), xs.end());
  double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid) - 1, xs.end());
  return 0.5 * (hi + xs[mid - 1]);
}

}  // namespace pamr
