// The traced run (--trace 1): per-layer numbers for one workload.
//
// It alternates untraced rounds with rounds that have telemetry and span
// tracing armed, through the same entry point, for `seconds` (their wall
// ratio is the tracing overhead), then replays every instance of the round
// single-threaded through the public layer functions — spec text round trip, generate,
// each router, the simulator, the instance fold, the aggregate codec, the
// wire, the journal and the merger — timing each call from outside and
// reading the library's own counters around them. The replay rebuilds the
// round's result files from its own calls, so they must equal the
// untraced files byte for byte.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedRun {
  std::vector<Metric> metrics;
  std::size_t rounds = 0;  ///< untraced + traced rounds run
};

/// Accounts every round and the replay in `ledger`, whose reference the
/// first untraced round sets. Writes the first traced round's files to
/// out_dir/traced, the replay's to out_dir/replay and the span trace to
/// out_dir/trace.json.
[[nodiscard]] TracedRun run_traced(const Campaign& campaign, const Layout& layout,
                                   const std::string& exe, double seconds,
                                   const std::string& out_dir, RunLedger& ledger);

}  // namespace perfbench
