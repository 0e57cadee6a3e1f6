// Benchmark workloads and the pieces every measurement mode shares: the
// workload table, one resolved campaign per (workload, seed), the set-up
// sequence, one execution round through the public entry points, and the
// output checks that need no recorded reference.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pamr/dist/protocol.hpp"
#include "pamr/scenario/suite_runner.hpp"

namespace perfbench {

using pamr::scenario::ScenarioResult;

struct WorkloadDef {
  std::string name;
  std::vector<std::string> scenarios;  ///< registry names
  std::int32_t instances = 0;          ///< instances per point per round
  bool distributed = false;            ///< dist::run_campaign instead of SuiteRunner
};

/// nullptr for an unknown name.
[[nodiscard]] const WorkloadDef* find_workload(std::string_view name);
[[nodiscard]] std::string workload_names();

/// Work-unit size, the library default; the workload sizes above are chosen
/// against it.
inline constexpr std::size_t kChunk = 8;

/// How much parallel hardware a run uses: `threads` compute threads for the
/// in-process runner (its pool's caller thread included), or `workers`
/// processes under one coordinator.
struct Layout {
  std::size_t threads = 1;
  std::size_t workers = 1;
};
[[nodiscard]] Layout default_layout();

/// One workload resolved for one seed: suite entries, the canonical unit
/// plan, and the counts the metrics divide by.
class Campaign {
 public:
  Campaign(const WorkloadDef& def, std::uint64_t seed);

  [[nodiscard]] const WorkloadDef& def() const noexcept { return *def_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const std::vector<pamr::scenario::SuiteEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] const pamr::dist::CampaignPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] std::size_t units() const noexcept { return plan_.units.size(); }
  [[nodiscard]] std::size_t instances() const noexcept;
  /// Units per round of each scenario, keyed by scenario name.
  [[nodiscard]] std::map<std::string, std::size_t> units_by_scenario() const;

 private:
  const WorkloadDef* def_;
  std::uint64_t seed_;
  std::vector<pamr::scenario::SuiteEntry> entries_;
  pamr::dist::CampaignPlan plan_;
};

/// Outcome of one round: the merged results and every unit that failed.
struct RoundResult {
  std::vector<ScenarioResult> results;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< this process plus reaped children
  std::size_t failed_units = 0;
  std::string error;  ///< first failure, empty when none
};

/// Attempted and failed work units of one benchmark run, and the reference
/// every round is held to. The first round that returns results becomes the
/// reference: its files are written to `measured_dir` and checked with
/// invariant_failures(). Every later round must reproduce its bytes, or all
/// of its units fail.
class RunLedger {
 public:
  RunLedger(const Campaign& campaign, std::string measured_dir);

  void account(const RoundResult& round);
  /// Records work outside a round: `attempted` units tried, `failed` lost.
  void record(std::size_t attempted, std::size_t failed, const std::string& error);

  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  const Campaign* campaign_;
  std::string measured_dir_;
  std::map<std::string, std::string> reference_;
  bool have_reference_ = false;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::string error_;
};

/// Runs every unit of the campaign once: SuiteRunner::run_all with
/// layout.threads, or dist::run_campaign with layout.workers children of
/// `exe` journaling into `journal_dir` (recreated empty first).
[[nodiscard]] RoundResult run_round(const Campaign& campaign, const Layout& layout,
                                    bool distributed, const std::string& exe,
                                    const std::string& journal_dir);

/// The set-up of one round before its first instance, through the
/// library's own calls: suite entries resolved from the registry, then in
/// process what SuiteRunner::run_all does first (mesh and power model of
/// every point, unit enumeration, the compute pool), or for the distributed
/// workload the campaign plan built and start_workers(). Traces are not
/// read here: the library loads them lazily, cached, during instance work.
/// `journal_dir` is removed before the clock starts. Returns seconds.
[[nodiscard]] double setup_once(const WorkloadDef& def, std::uint64_t seed,
                                const Layout& layout, const std::string& exe,
                                const std::string& journal_dir);

/// Starts and stops layout.workers workers through dist::run_campaign, on a
/// warm-up plan of one one-instance unit per worker: the first point of the
/// first scenario in `entries`, routing only. The coordinator spawns the
/// workers, opens the journal in `journal_dir` (which must not hold one
/// yet), hands each worker its unit, merges the results and reaps the
/// workers. Throws what run_campaign throws, or std::runtime_error if the
/// warm-up campaign does not complete cleanly.
void start_workers(const std::vector<pamr::scenario::SuiteEntry>& entries,
                     const Layout& layout, const std::string& exe,
                     const std::string& journal_dir);

/// Byte form of every result file, keyed by file name: exactly what
/// scenario::write_scenario_outputs writes.
[[nodiscard]] std::map<std::string, std::string> result_files(
    const std::vector<ScenarioResult>& results);

/// Writes result_files() into `dir` (created) through
/// scenario::write_scenario_outputs. Returns false on an I/O failure.
bool write_results(const std::vector<ScenarioResult>& results, const std::string& dir);

/// Checks what every correct result satisfies whatever the seed: series
/// means and failure ratios in [0, 1], BEST failing no more often than any
/// policy, BEST's mean equal to its success ratio, sim delivery in
/// [0, 1.05].
/// Returns the units of every point that breaks one; `error` names the
/// first.
[[nodiscard]] std::size_t invariant_failures(const Campaign& campaign,
                                             const std::vector<ScenarioResult>& results,
                                             std::string& error);

/// Process CPU seconds (user + sys) of this process and of its reaped
/// children.
[[nodiscard]] double cpu_seconds();
/// Peak resident set of this process or its largest reaped child, MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
