// Declarative workload scenarios.
//
// A ScenarioSpec names everything needed to draw a problem instance: the
// mesh shape, the power model, and a *mix* of workload layers — the paper's
// uniform-random and fixed-length campaigns (§6), the classic permutation
// patterns, hotspot sets, and mapped multi-application task-graph mixes —
// each optionally shaped by a multi-phase intensity envelope. Layers
// compose: generate() concatenates every layer's communications, so "40
// uniform flows on top of a transpose permutation under a burst storm" is
// one spec, not a bespoke loop.
//
// Specs are plain data, compare by value, and round-trip through a
// `key=value` text form (sections separated by ';', first section global):
//
//   mesh=8x8 model=discrete ; kind=uniform n=40 lo=100 hi=1500
//   mesh=8x8 model=discrete ; kind=pattern pattern=transpose weight=700
//       envelope=ramp:0.2:5 ; kind=hotspots spots=2 n=24 lo=100 hi=1500
//   mesh=8x8 model=discrete sim=on cycles=4000 warmup=400
//       ; kind=trace file=traces/example_8x8.csv sample=16
//
// so a scenario can be printed, logged, diffed, stored in a registry, or
// passed on a command line — reproducibility from the printed parameters
// alone, for every workload the system knows how to draw.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pamr/comm/communication.hpp"
#include "pamr/comm/task_graph.hpp"
#include "pamr/comm/traffic_pattern.hpp"
#include "pamr/mesh/mesh.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/scenario/envelope.hpp"
#include "pamr/topo/topology.hpp"
#include "pamr/util/rng.hpp"

namespace pamr {
namespace scenario {

/// One mapped application inside a `kind=apps` layer. Text form:
/// "pipeline:<stages>:<bw>", "forkjoin:<workers>:<bw>",
/// "stencil:<w>:<h>:<bw>".
struct AppSpec {
  enum class Shape { kPipeline, kForkJoin, kStencil };
  Shape shape = Shape::kPipeline;
  std::int32_t a = 1;        ///< stages / workers / stencil width
  std::int32_t b = 1;        ///< stencil height (unused otherwise)
  double bandwidth = 500.0;  ///< Mb/s per edge

  [[nodiscard]] TaskGraph build() const;
  [[nodiscard]] std::int32_t num_tasks() const noexcept;
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const AppSpec&, const AppSpec&) = default;
};

struct WorkloadLayer {
  enum class Kind {
    kUniform,      ///< §6.1/§6.2: random endpoints, U[lo, hi) weights
    kFixedLength,  ///< §6.3: random endpoints at a fixed Manhattan distance
    kPattern,      ///< one classic permutation/hotspot TrafficPattern
    kHotspots,     ///< random senders converging on a random hotspot set
    kApps,         ///< mapped task-graph applications
    kTrace,        ///< replay a CommSet loaded from CSV (scenario/trace.hpp)
  };

  Kind kind = Kind::kUniform;

  // kUniform / kFixedLength / kHotspots ("n" in the text form)
  std::int32_t num_comms = 0;
  double weight_lo = 100.0;
  double weight_hi = 1500.0;
  std::int32_t length = 0;  ///< kFixedLength only

  // kPattern
  TrafficPattern pattern = TrafficPattern::kTranspose;
  double pattern_weight = 500.0;
  double jitter = 0.0;
  Coord hotspot{0, 0};  ///< TrafficPattern::kHotspot only

  // kHotspots
  std::int32_t num_hotspots = 1;  ///< distinct hotspot cores, drawn per instance

  // kApps. kOptimized searches the placement space per instance with
  // map::optimize_placement — placements judged by the routed power of the
  // spec's own model, which is why generate() takes the PowerModel.
  enum class Placement { kContiguous, kScattered, kOptimized };
  std::vector<AppSpec> apps;
  Placement placement = Placement::kContiguous;

  // kTrace ("file"/"sample" in the text form)
  std::string trace_file;       ///< CSV path (resolved via resolve_trace_path)
  std::int32_t trace_sample = 0;  ///< replay this many comms per instance; 0 = all

  IntensityEnvelope envelope;  ///< weight multiplier over the instance axis

  /// Draws this layer's communications at envelope position t, scaling
  /// weights by scale_at(t). A flat envelope leaves weights bit-identical
  /// to the underlying generator's draw. `model` is consulted only by
  /// placement-optimized apps layers (the placement objective).
  [[nodiscard]] CommSet generate(const Mesh& mesh, const PowerModel& model, double t,
                                 Rng& rng) const;

  friend bool operator==(const WorkloadLayer&, const WorkloadLayer&) = default;
};

struct ScenarioSpec {
  std::int32_t mesh_p = 8;
  std::int32_t mesh_q = 8;
  enum class ModelKind {
    kDiscrete,  ///< PowerModel::paper_discrete() — Kim–Horowitz links
    kTheory,    ///< PowerModel::theory() — continuous, Pleak = 0
  };
  ModelKind model = ModelKind::kDiscrete;

  // Interconnect topology ("topo" in the text form, global section).
  // Workload layers always draw endpoints on the p×q grid, so the same spec
  // (and seed) produces the *identical* communication set on every
  // topology — the axis varies only how it is routed. to_string() omits the
  // default, keeping rectangular spec text (and thus every existing output
  // file) byte-identical. sim=on and place=optimized remain rect-only.
  topo::TopoKind topo = topo::TopoKind::kRect;

  std::vector<WorkloadLayer> layers;

  // Open-loop injection probe ("sim"/"cycles"/"warmup" in the text form,
  // global section): when enabled, every instance additionally drives
  // sim::Simulator on its BEST routing — injection rates follow the drawn
  // (envelope-scaled) weights — and the point aggregates latency, delivery
  // ratio and delivered throughput next to power (exp::PointAggregate's
  // sim_* stats).
  bool sim = false;
  std::int64_t sim_cycles = 20000;  ///< total simulated cycles per instance
  std::int64_t sim_warmup = 2000;   ///< cycles excluded from measurement

  [[nodiscard]] Mesh make_mesh() const { return Mesh(mesh_p, mesh_q); }
  [[nodiscard]] PowerModel make_model() const;

  /// Concatenation of every layer's draw (layer order is spec order).
  [[nodiscard]] CommSet generate(const Mesh& mesh, const PowerModel& model, double t,
                                 Rng& rng) const;

  /// Canonical text form; parse(to_string()) reconstructs *this exactly.
  [[nodiscard]] std::string to_string() const;

  /// Parses the text form. On failure returns false and sets `error`
  /// (leaving `out` untouched).
  [[nodiscard]] static bool parse(std::string_view text, ScenarioSpec& out,
                                  std::string& error);

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

}  // namespace scenario
}  // namespace pamr
