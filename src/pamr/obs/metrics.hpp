// The telemetry metric table: every counter, histogram and phase timer the
// library can record, in *pinned registration order* (the enum order below).
//
// The order is load-bearing. Thread-local shards are merged by summing cell
// arrays indexed by these offsets, and sums of unsigned integers are
// order-independent — so a snapshot of the deterministic series is
// bit-identical no matter how many threads (or dist workers) produced it.
// Appending a metric is safe; reordering or removing one changes every cell
// offset and therefore the wire encoding of counter deltas (see
// registry.hpp), which is why the table lives in one header with no
// runtime registration API.
//
// Metrics carry a Scope, the hard split the differential suites rely on:
//
//   kUnit   deterministic work counts incremented only inside
//           run_unit_instances and the routing code under it. These are
//           pinned by tests: 1 thread == N threads == N dist workers,
//           bit for bit, AND across binaries — a hot-path rewrite must not
//           move them (compare_metrics.py fails on any drift).
//   kImpl   implementation-strategy counts (cache hits/misses).
//           Deterministic like kUnit — the same thread/driver pinning
//           applies — but a cache-layer rewrite legitimately changes them,
//           so cross-binary comparisons report them informationally only.
//   kDriver orchestration counts (units dispatched, workers spawned).
//           Deterministic for a failure-free run of one driver, but they
//           differ between the in-process and dist paths by design.
//   kWall   wall-clock phase timers. Never compared, only reported.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pamr::obs {

enum class Metric : std::uint32_t {
  // -------------------------------------------- unit-scoped counters --
  kRouteCalls,            ///< Router::route / topo::route_on invocations
  kXyiMoves,              ///< accepted moves across both XYI loops
  kXyiEvalHits,           ///< CrossingIndex slots reused (read-set fresh)
  kXyiEvalMisses,         ///< CrossingIndex slot misses (genuine re-evaluation)
  kXyiIndexRewrites,      ///< CrossingIndex::apply_rewrite calls
  kPrRemovals,            ///< PR removals applied (both loops)
  kPrLinksRetired,        ///< LoadIndex::retire calls
  kLoadIndexReorders,     ///< rank updates (LoadIndex/LoadOrder::reorder calls)
  kIgCutBounds,           ///< IG remaining_bound evaluations
  kSimProbes,             ///< simulator probes of a finished routing
  kSuiteUnits,            ///< work units executed (run_unit_instances calls)
  kSuiteInstances,        ///< Monte-Carlo instances executed
  // ------------------------------------------ unit-scoped histograms --
  kXyiMovesPerCall,       ///< accepted moves per XYI route call
  kPrRemovalsPerCall,     ///< removals per PR route call
  // ------------------------------------------ driver-scoped counters --
  kDistUnitsDispatched,   ///< units handed to a worker (incl. re-dispatch)
  kDistUnitsRequeued,     ///< units returned to the queue by a worker death
  kDistUnitsResumeSkipped,///< units satisfied from the journal by --resume
  kDistWorkerSpawns,      ///< worker processes forked (incl. respawns)
  // ----------------------------------------------- wall-clock timers --
  kPhaseRouteXy,
  kPhaseRouteSg,
  kPhaseRouteIg,
  kPhaseRouteTb,
  kPhaseRouteXyi,
  kPhaseRoutePr,
  kPhaseRouteBest,        ///< BEST dispatcher; nests the six base timers
  kPhaseRouteOther,       ///< non-rect topo routing (no per-kind split)
  kPhaseSim,              ///< simulator probe
  kPhaseUnit,             ///< one run_unit_instances call
  kPhaseSuite,            ///< one SuiteRunner::run_all
  kPhaseDistCampaign,     ///< one dist::run_campaign
  // ------------------------ unit-scoped counters (appended, see above) --
  kSimRouterCycles,       ///< router-cycles the simulator evaluated: routers holding a
                          ///< flit or a queued packet (a retired flit is held nowhere)
  kSimFlitHops,           ///< flits the simulator moved across a mesh link (retired hops too)
  kRouteCertifiedInfeasible,  ///< instances exp::run_instance proved infeasible, unrouted
  // ------------------------- wall-clock timers (appended, see above) --
  kPhaseCertificate,      ///< the infeasibility certificate of one instance
  // ------------------------ unit-scoped counters (appended, see above) --
  kRouteStoppedEarly,     ///< RouteGoal::kVerdict calls stopped at a certain overload
  kSuiteInstancesReused,  ///< instances folded from an identical set's sample, unrouted
  kSimFlitHopsRetired,    ///< of sim.flit_hops, those accounted in closed form (private tails)
  kMetricCount,
};

inline constexpr std::size_t kNumMetrics = static_cast<std::size_t>(Metric::kMetricCount);

enum class Kind : std::uint8_t { kCounter, kHistogram, kTimer };
enum class Scope : std::uint8_t { kUnit, kImpl, kDriver, kWall };

struct MetricInfo {
  const char* name;
  Kind kind;
  Scope scope;
};

/// Power-of-two histogram buckets: bucket 0 holds zero samples, bucket b
/// (1 <= b < kHistBuckets-1) holds samples with bit_width b (i.e. the range
/// [2^(b-1), 2^b - 1]), and the last bucket absorbs everything larger.
inline constexpr std::size_t kHistBuckets = 21;

/// Cells per metric: counters use one cell; timers use two (total
/// nanoseconds, call count); histograms use kHistBuckets + two (sample
/// count, sample sum).
inline constexpr std::size_t cells_for(Kind kind) noexcept {
  switch (kind) {
    case Kind::kCounter: return 1;
    case Kind::kTimer: return 2;
    case Kind::kHistogram: return kHistBuckets + 2;
  }
  return 1;
}

inline constexpr MetricInfo kMetricTable[kNumMetrics] = {
    {"route.calls", Kind::kCounter, Scope::kUnit},
    {"xyi.moves", Kind::kCounter, Scope::kUnit},
    {"xyi.memo.eval_hits", Kind::kCounter, Scope::kImpl},
    {"xyi.memo.eval_misses", Kind::kCounter, Scope::kImpl},
    {"xyi.index.rewrites", Kind::kCounter, Scope::kUnit},
    {"pr.removals", Kind::kCounter, Scope::kUnit},
    {"pr.links.retired", Kind::kCounter, Scope::kUnit},
    {"load_index.reorders", Kind::kCounter, Scope::kUnit},
    {"ig.cut_bounds", Kind::kCounter, Scope::kUnit},
    {"sim.probes", Kind::kCounter, Scope::kUnit},
    {"suite.units", Kind::kCounter, Scope::kUnit},
    {"suite.instances", Kind::kCounter, Scope::kUnit},
    {"xyi.moves_per_call", Kind::kHistogram, Scope::kUnit},
    {"pr.removals_per_call", Kind::kHistogram, Scope::kUnit},
    {"dist.units.dispatched", Kind::kCounter, Scope::kDriver},
    {"dist.units.requeued", Kind::kCounter, Scope::kDriver},
    {"dist.units.resume_skipped", Kind::kCounter, Scope::kDriver},
    {"dist.worker.spawns", Kind::kCounter, Scope::kDriver},
    {"phase.route.XY", Kind::kTimer, Scope::kWall},
    {"phase.route.SG", Kind::kTimer, Scope::kWall},
    {"phase.route.IG", Kind::kTimer, Scope::kWall},
    {"phase.route.TB", Kind::kTimer, Scope::kWall},
    {"phase.route.XYI", Kind::kTimer, Scope::kWall},
    {"phase.route.PR", Kind::kTimer, Scope::kWall},
    {"phase.route.BEST", Kind::kTimer, Scope::kWall},
    {"phase.route.other", Kind::kTimer, Scope::kWall},
    {"phase.sim", Kind::kTimer, Scope::kWall},
    {"phase.unit", Kind::kTimer, Scope::kWall},
    {"phase.suite", Kind::kTimer, Scope::kWall},
    {"phase.dist.campaign", Kind::kTimer, Scope::kWall},
    {"sim.router_cycles", Kind::kCounter, Scope::kUnit},
    {"sim.flit_hops", Kind::kCounter, Scope::kUnit},
    {"route.certified_infeasible", Kind::kCounter, Scope::kUnit},
    {"phase.certificate", Kind::kTimer, Scope::kWall},
    {"route.stopped_early", Kind::kCounter, Scope::kUnit},
    {"suite.instances_reused", Kind::kCounter, Scope::kUnit},
    {"sim.flit_hops_retired", Kind::kCounter, Scope::kUnit},
};

inline constexpr const MetricInfo& info(Metric m) noexcept {
  return kMetricTable[static_cast<std::size_t>(m)];
}

/// First cell of a metric in the flat shard array.
inline constexpr std::size_t cell_offset(Metric m) noexcept {
  std::size_t offset = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(m); ++i) {
    offset += cells_for(kMetricTable[i].kind);
  }
  return offset;
}

inline constexpr std::size_t kTotalCells = cell_offset(Metric::kMetricCount);

/// Maps a base-router display name ("XY", ..., "BEST") to its phase timer;
/// anything unrecognized lands in phase.route.other.
inline constexpr Metric route_phase(const char* name) noexcept {
  constexpr const char* kNames[] = {"XY", "SG", "IG", "TB", "XYI", "PR", "BEST"};
  constexpr Metric kPhases[] = {
      Metric::kPhaseRouteXy,  Metric::kPhaseRouteSg,  Metric::kPhaseRouteIg,
      Metric::kPhaseRouteTb,  Metric::kPhaseRouteXyi, Metric::kPhaseRoutePr,
      Metric::kPhaseRouteBest,
  };
  for (std::size_t i = 0; i < 7; ++i) {
    const char* a = kNames[i];
    const char* b = name;
    while (*a != '\0' && *a == *b) {
      ++a;
      ++b;
    }
    if (*a == '\0' && *b == '\0') return kPhases[i];
  }
  return Metric::kPhaseRouteOther;
}

}  // namespace pamr::obs
