// Telemetry registry: thread-local shards of relaxed atomic cells, merged
// in the pinned order of metrics.hpp.
//
// Contract with the rest of the repo:
//
//   * Recording never perturbs results. The registry only accumulates
//     integers; nothing in a result path may read a telemetry value back
//     (pamr_lint's obs-value rule enforces this — the only readers are the
//     report/trace writers and the dist side channel, each individually
//     justified).
//   * Unit-scoped cells are bit-identical across PAMR_THREADS and across
//     the dist path: increments are integer adds, shards are summed, and
//     integer addition commutes.
//   * One relaxed load per entry point when disabled (the `enabled()`
//     gate); a run without --metrics-out, --trace-out or PAMR_OBS=1
//     records nothing.
//
// Thread safety: bump/sample/PhaseScope touch only the calling thread's
// shard through relaxed std::atomic cells, so TSan-clean by construction;
// snapshot() may run concurrently with recording (it sums whatever relaxed
// values it observes — callers snapshot at quiesce points anyway).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "pamr/obs/metrics.hpp"

namespace pamr::obs {

/// Merged view of all shards (live and retired), cells in table order.
struct Snapshot {
  std::array<std::uint64_t, kTotalCells> cells{};

  [[nodiscard]] std::uint64_t counter(Metric m) const {
    return cells[cell_offset(m)];
  }
  [[nodiscard]] std::uint64_t timer_ns(Metric m) const {
    return cells[cell_offset(m)];
  }
  [[nodiscard]] std::uint64_t timer_calls(Metric m) const {
    return cells[cell_offset(m) + 1];
  }
  [[nodiscard]] std::uint64_t hist_count(Metric m) const {
    return cells[cell_offset(m)];
  }
  [[nodiscard]] std::uint64_t hist_sum(Metric m) const {
    return cells[cell_offset(m) + 1];
  }
  [[nodiscard]] std::uint64_t hist_bucket(Metric m, std::size_t bucket) const {
    return cells[cell_offset(m) + 2 + bucket];
  }
};

/// True when a cell belongs to a unit- or impl-scoped metric (the ones the
/// differential tests pin across thread counts and drivers — impl counters
/// are just as deterministic for a fixed binary; only *cross-binary*
/// comparisons treat them as informational).
[[nodiscard]] constexpr bool unit_scoped_cell(std::size_t cell) noexcept {
  std::size_t offset = 0;
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    const std::size_t width = cells_for(kMetricTable[i].kind);
    if (cell < offset + width) {
      return kMetricTable[i].scope == Scope::kUnit ||
             kMetricTable[i].scope == Scope::kImpl;
    }
    offset += width;
  }
  return false;
}

/// Metric a flat cell index belongs to (for diagnostics in tests).
[[nodiscard]] constexpr Metric cell_metric(std::size_t cell) noexcept {
  std::size_t offset = 0;
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    const std::size_t width = cells_for(kMetricTable[i].kind);
    if (cell < offset + width) return static_cast<Metric>(i);
    offset += width;
  }
  return Metric::kMetricCount;
}

/// Always true: telemetry has one build. Kept only because perfbench/src
/// prints it in its provenance line ("obs": true); nothing branches on it.
[[nodiscard]] constexpr bool compiled_in() noexcept { return true; }

/// Runtime gate; initialized once from PAMR_OBS=1 in the environment (the
/// dist coordinator exports it to workers), flipped by the CLI flags.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonic nanoseconds since an arbitrary process-local epoch.
[[nodiscard]] std::uint64_t now_ns() noexcept;

void bump(Metric m, std::uint64_t n = 1) noexcept;
void sample(Metric m, std::uint64_t value) noexcept;
void add_ns(Metric m, std::uint64_t ns) noexcept;

/// RAII phase timer; also records a trace span when tracing is enabled.
class PhaseScope {
 public:
  explicit PhaseScope(Metric m) noexcept;
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Metric metric_;
  std::uint64_t start_ = 0;
  bool armed_ = false;
};

[[nodiscard]] Snapshot snapshot();

/// Zeroes every cell, live and retired. Test/CLI quiesce-point use only.
void reset();

/// Wire side channel for the dist protocol: nonzero cell deltas between two
/// snapshots as "<kTotalCells>;<cell>:<delta>,..." (empty string when
/// nothing changed), and the matching merge into this process's registry.
/// merge fails (returning false, message in `error`) on a cell-count
/// mismatch — a worker built from different sources — or a malformed entry.
[[nodiscard]] std::string encode_cell_deltas(const Snapshot& before, const Snapshot& after);
[[nodiscard]] bool merge_cell_deltas(std::string_view text, std::string& error);

}  // namespace pamr::obs
