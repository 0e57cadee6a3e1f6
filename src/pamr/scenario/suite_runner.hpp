// Sharded parallel execution of scenario suites.
//
// The runner flattens a scenario's (point × instance-chunk) grid into one
// work list and distributes it over the ThreadPool, so short points do not
// serialize behind long ones. Determinism is total: instance i of point p
// draws from Rng(derive_seed(seed, p, i)) — never from thread identity —
// and per-instance samples are folded into fixed-size chunk aggregates that
// are merged in chunk order afterwards, so the resulting PointAggregates
// are bit-identical for 1 thread and N threads. The figure benches run the
// same registry scenarios through run_and_report, which is what makes
// `pamr_scenarios --run fig7a_small` reproduce `bench/fig7_num_comms`
// number-for-number.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pamr/exp/metrics.hpp"
#include "pamr/scenario/registry.hpp"
#include "pamr/scenario/work_list.hpp"
#include "pamr/util/csv.hpp"
#include "pamr/util/thread_pool.hpp"

namespace pamr {
namespace scenario {

struct SuiteOptions {
  std::int32_t instances = 300;  ///< instances per point (PAMR_TRIALS in the CLI)
  std::uint64_t seed = 0x9e3779b9ULL;
  std::size_t threads = 0;  ///< 0 = the global pool; else a dedicated pool
  /// Instances folded per work item. Fixed chunking (independent of the
  /// thread count) is what makes aggregates bit-identical across pools;
  /// 8 keeps a single default-trials point (300 instances) spread over
  /// ~38 items, enough for wide machines even without point flattening.
  std::size_t chunk = 8;

  /// Rejects options that would corrupt the sharding math (instances <= 0,
  /// chunk == 0, absurd thread counts) with a std::invalid_argument naming
  /// the offending field — like routing's check_comm_set, bad user input
  /// must fail loudly at the API boundary, not deep inside a parallel_for.
  /// Every execution entry point (SuiteRunner, pamr::dist) calls this.
  void validate() const;
};

/// Observes unit completion during a suite run. Called concurrently from
/// pool workers, in completion order (nondeterministic); the aggregate is
/// the unit's own partial, not a running total. Used to stream progress
/// rows (CsvStreamWriter) while a 50k-instance campaign is still running.
using UnitSink = std::function<void(const SuiteUnit&, const exp::PointAggregate&)>;

struct ScenarioPointResult {
  double x = 0.0;
  exp::PointAggregate aggregate;
};

struct ScenarioResult {
  std::string name;
  std::string x_label;
  std::vector<ScenarioPointResult> points;
  double elapsed_seconds = 0.0;
};

/// THE canonical fold: builds each entry's result skeleton and merges one
/// partial aggregate per unit, in unit-index order. Every execution path
/// that claims bit-identical output — SuiteRunner::run_all over its
/// parallel_for partials, dist::ResultMerger over deserialized worker
/// results — funnels through this single implementation, so they cannot
/// diverge. `partials[i]` belongs to `units[i]`.
[[nodiscard]] std::vector<ScenarioResult> fold_suite_units(
    const std::vector<SuiteEntry>& entries, const std::vector<SuiteUnit>& units,
    const std::vector<exp::PointAggregate>& partials);

/// The canonical `--spec` wrapper: a single-point scenario named "adhoc"
/// under the library default seed. `pamr_scenarios --spec`, `pamr_dist
/// --spec` and the differential test fixture all build ad-hoc runs through
/// this one helper, so their outputs stay byte-comparable by construction
/// instead of by parallel hand-rolled copies.
[[nodiscard]] Scenario adhoc_scenario(ScenarioSpec spec);

/// Runs every instance of one spec (the single-point kernel). `pool` may be
/// null for the global pool.
[[nodiscard]] exp::PointAggregate run_scenario_point(
    const Mesh& mesh, const PowerModel& model, const ScenarioSpec& spec,
    std::int32_t instances, std::uint64_t seed, std::uint64_t point_id,
    ThreadPool* pool = nullptr, std::size_t chunk = 8);

class SuiteRunner {
 public:
  explicit SuiteRunner(SuiteOptions options = {});

  [[nodiscard]] const SuiteOptions& options() const noexcept { return options_; }

  /// Runs all points of one scenario, sharded over the pool as a single
  /// flattened work list. Equivalent to run_all with one entry seeded from
  /// options().seed.
  [[nodiscard]] ScenarioResult run(const Scenario& scenario) const;

  /// Runs a whole batch as ONE flattened work list — every (scenario,
  /// point, instance-chunk) unit of every entry lands in the same
  /// parallel_for, so short scenarios no longer serialize behind long ones
  /// at round boundaries. Unit aggregates merge in canonical unit order:
  /// each returned ScenarioResult is bit-identical to a standalone run()
  /// of that entry with the same seed, for any thread count. Every result
  /// reports the batch's wall time (execution is interleaved; per-scenario
  /// times would be fiction). `sink`, if set, observes unit completions.
  [[nodiscard]] std::vector<ScenarioResult> run_all(
      const std::vector<SuiteEntry>& entries, const UnitSink& sink = {}) const;

 private:
  SuiteOptions options_;
};

// -- Reporting -------------------------------------------------------------

/// One row per point, one column per series.
[[nodiscard]] Table normalized_inverse_table(const ScenarioResult& result);
[[nodiscard]] Table failure_ratio_table(const ScenarioResult& result);

/// True iff any point carries simulation-probe aggregates (a sim=on spec
/// with at least one simulated instance). Decided from the aggregates
/// alone, so every execution path (in-process, distributed, resumed) makes
/// the same call — and writes the same files.
[[nodiscard]] bool has_sim_stats(const ScenarioResult& result);

/// Open-loop injection table: per point, the number of simulated instances
/// and the mean latency (cycles), delivery ratio and delivered throughput
/// (Mb/s). Meaningful only when has_sim_stats().
[[nodiscard]] Table sim_table(const ScenarioResult& result);

/// All tables as one JSON document (util/csv Table::to_json rows); the
/// "sim" member appears iff has_sim_stats().
[[nodiscard]] std::string result_to_json(const ScenarioResult& result);

/// Header / row of the live progress stream (one CsvStreamWriter row per
/// completed unit, in completion order): the unit's coordinates plus each
/// series' chunk-partial mean normalized inverse. Shared by
/// `pamr_scenarios --stream` and the pamr_dist coordinator so the two
/// streams are drop-in compatible for live plotting.
[[nodiscard]] std::vector<std::string> stream_csv_header();
[[nodiscard]] std::vector<Cell> stream_csv_row(const std::string& scenario, double x,
                                               const SuiteUnit& unit,
                                               const exp::PointAggregate& partial);

/// Prints both tables of one result to stdout (shared by the scenario CLI
/// and pamr_dist, so their human-readable reports match too).
void print_scenario_result(const ScenarioResult& result, std::int32_t instances);

/// Writes dir/<name>_{norm_inv_power,failure_ratio}.csv and, optionally,
/// dir/<name>.json. One shared implementation is what makes `pamr_dist`
/// output byte-identical to `pamr_scenarios --csv --json`. Returns false
/// (after logging) if any write failed.
bool write_scenario_outputs(const ScenarioResult& result, const std::string& dir,
                            bool write_csv, bool write_json);

/// Runs a scenario and prints both tables; optionally writes
/// output_directory()/<name>_{norm_inv_power,failure_ratio}.csv and
/// <name>.json.
void run_and_report(const Scenario& scenario, const SuiteOptions& options,
                    bool write_csv, bool write_json = false);

}  // namespace scenario
}  // namespace pamr
