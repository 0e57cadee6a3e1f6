// Campaign coordinator: shards one plan across worker processes.
//
// The coordinator owns no compute. It spawns N children of the same binary
// in `--worker` mode, keeps exactly one unit in flight per worker over
// pipes, and reacts to results in an event loop (poll): journal the unit
// (shard_log.hpp), stream a progress row (util/csv CsvStreamWriter), hand
// the worker its next unit. A worker that dies mid-unit gets its unit
// requeued and a replacement spawned, within a respawn budget; a campaign
// killed outright resumes from the journal with `--resume`, rerunning only
// the units that never completed. Because completed aggregates are folded
// in canonical order by the ResultMerger regardless of which process
// computed them or in which run, the final tables are bit-identical to a
// single-process SuiteRunner — interrupted, resumed, or not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pamr/dist/merger.hpp"
#include "pamr/dist/protocol.hpp"

namespace pamr {
namespace dist {

struct CoordinatorOptions {
  std::size_t workers = 2;
  std::string worker_exe;      ///< spawned as `<worker_exe> --worker`
  std::string out_dir = ".";   ///< journal (shards.log) + progress stream
  bool resume = false;         ///< trust an existing matching journal
  /// Checkpoint/test hook: dispatch at most this many new units, then stop
  /// cleanly (journal intact, exit incomplete). 0 = no limit.
  std::uint64_t max_units = 0;
};

struct CampaignOutcome {
  bool complete = false;
  std::size_t units_total = 0;
  std::size_t units_resumed = 0;  ///< satisfied from the journal
  std::size_t units_run = 0;      ///< freshly executed this run
  std::size_t worker_failures = 0;
  double elapsed_seconds = 0.0;
  /// Merged per-scenario results; populated only when `complete`.
  std::vector<scenario::ScenarioResult> results;
};

/// Runs the campaign to completion (or to the max_units checkpoint).
/// Throws std::runtime_error on unrecoverable failure: journal mismatch, a
/// worker-reported spec/protocol error, or worker deaths beyond the
/// respawn budget.
[[nodiscard]] CampaignOutcome run_campaign(const CampaignPlan& plan,
                                           const CoordinatorOptions& options);

/// Path of the currently running executable (/proc/self/exe when
/// available, else argv0) — what the coordinator re-executes as workers.
[[nodiscard]] std::string self_executable(const char* argv0);

}  // namespace dist
}  // namespace pamr
