// Wall-clock timing for the experiment harness (the paper reports heuristic
// runtimes: "24 ms for XYI, 38 ms for PR" — bench/table_summary regenerates
// that row from these timers, and perfbench's routing.<P>.us_per_call times
// each policy on the paper's 8×8 instances).
#pragma once

#include <chrono>

namespace pamr {

class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  [[nodiscard]] double elapsed_ms() const noexcept { return elapsed_seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pamr
