// Canonical work-unit enumeration for suite execution.
//
// A campaign — one scenario or a whole `--run all` batch — flattens into a
// single global list of (scenario, point, instance-chunk) units. The list
// depends only on (entries, instances, chunk): never on thread counts,
// worker counts, or completion order. Both the in-process SuiteRunner and
// the distributed coordinator (pamr::dist) enumerate with this function, and
// both fold unit aggregates back in unit-index order, which is what makes a
// 2-worker `pamr_dist` run match a 1-thread SuiteRunner bit-for-bit.
//
// run_unit_instances is the one serial instance kernel under both drivers.
// Within a unit it routes each distinct communication set once: an instance
// whose set equals one the unit already routed folds that sample again.
// The memo never outlives its unit, so what a unit computes — aggregate
// and unit-scoped counters alike — still depends only on its bounds.
#pragma once

#include <cstdint>
#include <vector>

#include "pamr/exp/metrics.hpp"
#include "pamr/scenario/registry.hpp"

namespace pamr {
namespace scenario {

/// One scenario of a suite batch with the seed it runs under (figure suites
/// pin 7, 8 or 9 after their figure; --seed overrides uniformly).
struct SuiteEntry {
  const Scenario* scenario = nullptr;
  std::uint64_t seed = 0;
};

/// One unit of work: instances [begin, end) of one scenario point.
struct SuiteUnit {
  std::size_t scenario_index = 0;  ///< into the entries batch
  std::size_t point_index = 0;     ///< within the scenario (also the seed stream)
  std::size_t begin = 0;
  std::size_t end = 0;

  friend bool operator==(const SuiteUnit&, const SuiteUnit&) = default;
};

/// Resolves a CLI `--run` argument — "all" or a comma-separated list of
/// registry names — into suite entries. A non-negative `seed` overrides
/// every scenario's default seed. Returns false with `error` naming the
/// first unknown scenario (leaving `out` untouched). Shared by
/// pamr_scenarios and pamr_dist so name/seed semantics cannot drift.
[[nodiscard]] bool resolve_suite_entries(const ScenarioRegistry& registry,
                                         std::string_view names, std::int64_t seed,
                                         std::vector<SuiteEntry>& out,
                                         std::string& error);

/// Flattens a batch into chunk units, scenario-major, point-major, chunk-
/// major. Chunk boundaries depend only on (instances, chunk). CHECKs that
/// entries are non-null, instances >= 1 and chunk >= 1.
[[nodiscard]] std::vector<SuiteUnit> enumerate_suite_units(
    const std::vector<SuiteEntry>& entries, std::int32_t instances, std::size_t chunk);

/// The serial instance kernel: runs instances [begin, end) of one point and
/// folds them into one aggregate. Instance `i` draws from
/// Rng(derive_seed(seed, point_id, i)) at envelope position (i + 0.5) /
/// instances — exactly the SuiteRunner's parallel body, exported so the
/// distributed worker computes bit-identical chunk aggregates.
///
/// Without a simulation probe, exp::run_instance is a pure function of
/// (mesh or topology, model, set) except for its wall-clock runtimes. So an
/// instance whose set equals an earlier one of this unit exactly (size,
/// order, endpoints and weight bits) is not routed again: it folds the
/// earlier sample, runtimes included, and counts suite.instances_reused.
/// sim=on units route every instance, since each probe draws its own seed.
/// At PAMR_CHECK_LEVEL >= 2 every reused sample is routed again and must
/// match bit for bit except for runtimes (the `instance-memo` invariant).
[[nodiscard]] exp::PointAggregate run_unit_instances(
    const Mesh& mesh, const PowerModel& model, const ScenarioSpec& spec,
    std::size_t begin, std::size_t end, std::size_t instances, std::uint64_t seed,
    std::uint64_t point_id);

}  // namespace scenario
}  // namespace pamr
