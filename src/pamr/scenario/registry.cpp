#include "pamr/scenario/registry.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "pamr/util/assert.hpp"

namespace pamr {
namespace scenario {

namespace {

WorkloadLayer uniform_layer(std::int32_t n, double lo, double hi) {
  WorkloadLayer layer;
  layer.kind = WorkloadLayer::Kind::kUniform;
  layer.num_comms = n;
  layer.weight_lo = lo;
  layer.weight_hi = hi;
  return layer;
}

WorkloadLayer length_layer(std::int32_t n, double lo, double hi, std::int32_t length) {
  WorkloadLayer layer;
  layer.kind = WorkloadLayer::Kind::kFixedLength;
  layer.num_comms = n;
  layer.weight_lo = lo;
  layer.weight_hi = hi;
  layer.length = length;
  return layer;
}

WorkloadLayer pattern_layer(TrafficPattern pattern, double weight, double jitter = 0.0) {
  WorkloadLayer layer;
  layer.kind = WorkloadLayer::Kind::kPattern;
  layer.pattern = pattern;
  layer.pattern_weight = weight;
  layer.jitter = jitter;
  // Non-hotspot patterns ignore the coordinate; leaving it defaulted keeps
  // the text form round-trippable (to_string omits it for them).
  if (pattern == TrafficPattern::kHotspot) layer.hotspot = {3, 4};
  return layer;
}

ScenarioSpec single_layer_spec(WorkloadLayer layer) {
  ScenarioSpec spec;
  spec.layers.push_back(std::move(layer));
  return spec;
}

// -- Paper figure sweeps (§6; parameters mirrored by exp::panels) ----------

Scenario count_sweep(std::string name, std::string description, double lo, double hi,
                     std::int32_t max_comms, std::int32_t step) {
  Scenario scenario;
  scenario.name = std::move(name);
  scenario.description = std::move(description);
  scenario.x_label = "num_comms";
  scenario.default_seed = 7;
  for (std::int32_t n = step; n <= max_comms; n += step) {
    scenario.points.push_back(
        {static_cast<double>(n), single_layer_spec(uniform_layer(n, lo, hi))});
  }
  return scenario;
}

Scenario weight_sweep(std::string name, std::string description,
                      std::int32_t num_comms) {
  Scenario scenario;
  scenario.name = std::move(name);
  scenario.description = std::move(description);
  scenario.x_label = "avg_weight";
  scenario.default_seed = 8;
  // Constant weight per instance. The paper's cliff, where "every
  // communication reaches 1751 Mb/s" = capacity/2 + ε and no two can share
  // a link, exists only if every weight equals the swept average, which
  // pins the weight distribution to a degenerate one. Sample that region
  // densely.
  for (double w : {100.0, 300.0, 500.0, 700.0, 900.0, 1100.0, 1300.0, 1500.0,
                   1600.0, 1700.0, 1740.0, 1760.0, 1800.0, 1900.0, 2000.0, 2200.0,
                   2400.0, 2600.0, 2800.0, 3000.0, 3200.0, 3400.0}) {
    // A zero-width uniform range is degenerate; use ±1 Mb/s around w.
    scenario.points.push_back(
        {w, single_layer_spec(uniform_layer(num_comms, w - 1.0, w + 1.0))});
  }
  return scenario;
}

Scenario length_sweep(std::string name, std::string description, std::int32_t num_comms,
                      double lo, double hi) {
  Scenario scenario;
  scenario.name = std::move(name);
  scenario.description = std::move(description);
  scenario.x_label = "avg_length";
  scenario.default_seed = 9;
  for (std::int32_t length = 2; length <= 14; ++length) {
    scenario.points.push_back({static_cast<double>(length),
                               single_layer_spec(length_layer(num_comms, lo, hi, length))});
  }
  return scenario;
}

// -- Structured suites beyond the paper ------------------------------------

Scenario permutation_sweep() {
  Scenario scenario;
  scenario.name = "permutations";
  scenario.description = "classic NoC permutation patterns at 700 Mb/s per flow";
  scenario.x_label = "pattern";
  const std::vector<TrafficPattern> patterns = all_traffic_patterns();
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    scenario.points.push_back(
        {static_cast<double>(i), single_layer_spec(pattern_layer(patterns[i], 700.0))});
  }
  return scenario;
}

Scenario transpose_ramp() {
  Scenario scenario;
  scenario.name = "transpose_ramp";
  scenario.description =
      "transpose permutation ramped 100..3500 Mb/s over the instance axis";
  scenario.x_label = "instance_t";
  WorkloadLayer layer = pattern_layer(TrafficPattern::kTranspose, 1.0);
  layer.envelope = IntensityEnvelope::ramp(100.0, 3500.0);
  scenario.points.push_back({0.0, single_layer_spec(std::move(layer))});
  return scenario;
}

Scenario hotspot_storm() {
  Scenario scenario;
  scenario.name = "hotspot_storm";
  scenario.description =
      "random senders converging on 1..4 hotspots under a 2x burst envelope";
  scenario.x_label = "num_hotspots";
  // 24 senders at ~300 Mb/s mean keep one hotspot's in-links (≤ 4 × 3500)
  // just feasible off-peak; the 2x burst tips single-spot storms over.
  for (std::int32_t spots = 1; spots <= 4; ++spots) {
    WorkloadLayer layer;
    layer.kind = WorkloadLayer::Kind::kHotspots;
    layer.num_hotspots = spots;
    layer.num_comms = 24;
    layer.weight_lo = 100.0;
    layer.weight_hi = 500.0;
    layer.envelope = IntensityEnvelope::burst(1.0, 2.0, 0.25);
    scenario.points.push_back(
        {static_cast<double>(spots), single_layer_spec(std::move(layer))});
  }
  return scenario;
}

Scenario multi_app_mix() {
  Scenario scenario;
  scenario.name = "multi_app_mix";
  scenario.description =
      "video pipeline + fork/join analytics + stencil physics; contiguous vs scattered";
  scenario.x_label = "scattered";
  for (const auto placement : {WorkloadLayer::Placement::kContiguous,
                               WorkloadLayer::Placement::kScattered}) {
    WorkloadLayer layer;
    layer.kind = WorkloadLayer::Kind::kApps;
    layer.apps = {
        AppSpec{AppSpec::Shape::kPipeline, 8, 1, 1500.0},   // streaming decoder
        AppSpec{AppSpec::Shape::kForkJoin, 4, 1, 600.0},    // scatter/gather
        AppSpec{AppSpec::Shape::kStencil, 4, 4, 400.0},     // halo exchange
    };
    layer.placement = placement;
    scenario.points.push_back(
        {placement == WorkloadLayer::Placement::kScattered ? 1.0 : 0.0,
         single_layer_spec(std::move(layer))});
  }
  return scenario;
}

Scenario mixed_background() {
  Scenario scenario;
  scenario.name = "mixed_background";
  scenario.description =
      "transpose permutation over a ramped uniform background (layer composition)";
  scenario.x_label = "background_comms";
  for (const std::int32_t n : {10, 20, 30, 40}) {
    ScenarioSpec spec;
    WorkloadLayer background = uniform_layer(n, 100.0, 900.0);
    background.envelope = IntensityEnvelope::ramp(0.5, 2.0);
    spec.layers.push_back(std::move(background));
    spec.layers.push_back(pattern_layer(TrafficPattern::kTranspose, 500.0));
    scenario.points.push_back({static_cast<double>(n), std::move(spec)});
  }
  return scenario;
}

Scenario uniform_burst() {
  Scenario scenario;
  scenario.name = "uniform_burst";
  scenario.description =
      "40 uniform flows with a half-duty 3x burst (failure ratio under storms)";
  scenario.x_label = "instance_t";
  WorkloadLayer layer = uniform_layer(40, 100.0, 1500.0);
  layer.envelope = IntensityEnvelope::burst(1.0, 3.0, 0.5);
  scenario.points.push_back({0.0, single_layer_spec(std::move(layer))});
  return scenario;
}

Scenario ablation_length_mix() {
  Scenario scenario;
  scenario.name = "ablation_length_mix";
  scenario.description =
      "fixed-length short + long flows routed together (§6.3 ablation)";
  scenario.x_label = "long_length";
  for (std::int32_t length = 8; length <= 14; length += 2) {
    ScenarioSpec spec;
    spec.layers.push_back(length_layer(30, 200.0, 800.0, 2));
    spec.layers.push_back(length_layer(15, 200.0, 800.0, length));
    scenario.points.push_back({static_cast<double>(length), std::move(spec)});
  }
  return scenario;
}

// -- New workload layers (trace replay, injection, mesh sweeps, placement) --

Scenario trace_replay() {
  Scenario scenario;
  scenario.name = "trace_replay";
  scenario.description =
      "replay traces/example_8x8.csv, subsampled 8..48 comms per instance";
  scenario.x_label = "sample";
  for (const std::int32_t sample : {8, 16, 24, 32, 48}) {
    WorkloadLayer layer;
    layer.kind = WorkloadLayer::Kind::kTrace;
    layer.trace_file = "traces/example_8x8.csv";
    layer.trace_sample = sample;
    scenario.points.push_back(
        {static_cast<double>(sample), single_layer_spec(std::move(layer))});
  }
  return scenario;
}

Scenario trace_burst() {
  Scenario scenario;
  scenario.name = "trace_burst";
  scenario.description =
      "the full example trace under a quarter-duty 3x burst envelope";
  scenario.x_label = "instance_t";
  WorkloadLayer layer;
  layer.kind = WorkloadLayer::Kind::kTrace;
  layer.trace_file = "traces/example_8x8.csv";
  layer.envelope = IntensityEnvelope::burst(1.0, 3.0, 0.25);
  scenario.points.push_back({0.0, single_layer_spec(std::move(layer))});
  return scenario;
}

ScenarioSpec with_sim(ScenarioSpec spec, std::int64_t cycles, std::int64_t warmup) {
  spec.sim = true;
  spec.sim_cycles = cycles;
  spec.sim_warmup = warmup;
  return spec;
}

Scenario injection_sweep() {
  Scenario scenario;
  scenario.name = "injection_sweep";
  scenario.description =
      "open-loop sim probe: 20 uniform flows swept 0.25x..1.25x intensity";
  scenario.x_label = "intensity";
  for (const double intensity : {0.25, 0.5, 0.75, 1.0, 1.25}) {
    WorkloadLayer layer = uniform_layer(20, 100.0, 1500.0);
    layer.envelope = IntensityEnvelope::constant(intensity);
    scenario.points.push_back(
        {intensity, with_sim(single_layer_spec(std::move(layer)), 4000, 400)});
  }
  return scenario;
}

Scenario injection_ramp() {
  Scenario scenario;
  scenario.name = "injection_ramp";
  scenario.description =
      "open-loop sim probe under a 0.2x..2x ramp over the instance axis";
  scenario.x_label = "instance_t";
  WorkloadLayer layer = uniform_layer(20, 100.0, 1500.0);
  layer.envelope = IntensityEnvelope::ramp(0.2, 2.0);
  scenario.points.push_back(
      {0.0, with_sim(single_layer_spec(std::move(layer)), 4000, 400)});
  return scenario;
}

Scenario mesh_scaling() {
  Scenario scenario;
  scenario.name = "mesh_scaling";
  scenario.description =
      "uniform load at fixed per-core density across 4x4..12x12 meshes";
  scenario.x_label = "mesh_p";
  for (const std::int32_t p : {4, 6, 8, 10, 12}) {
    // 5 comms per 8 cores keeps the paper's 40-comms-at-8x8 density.
    ScenarioSpec spec = single_layer_spec(uniform_layer(5 * p * p / 8, 100.0, 1500.0));
    spec.mesh_p = p;
    spec.mesh_q = p;
    scenario.points.push_back({static_cast<double>(p), std::move(spec)});
  }
  return scenario;
}

Scenario mesh_scaling_transpose() {
  Scenario scenario;
  scenario.name = "mesh_scaling_transpose";
  scenario.description = "transpose permutation at 700 Mb/s across 4x4..12x12 meshes";
  scenario.x_label = "mesh_p";
  for (const std::int32_t p : {4, 6, 8, 10, 12}) {
    ScenarioSpec spec =
        single_layer_spec(pattern_layer(TrafficPattern::kTranspose, 700.0));
    spec.mesh_p = p;
    spec.mesh_q = p;
    scenario.points.push_back({static_cast<double>(p), std::move(spec)});
  }
  return scenario;
}

Scenario placement_modes() {
  Scenario scenario;
  scenario.name = "placement_modes";
  scenario.description =
      "pipeline+stencil mix placed contiguous (0) / scattered (1) / optimized (2)";
  scenario.x_label = "placement";
  const auto modes = {WorkloadLayer::Placement::kContiguous,
                      WorkloadLayer::Placement::kScattered,
                      WorkloadLayer::Placement::kOptimized};
  double x = 0.0;
  for (const auto placement : modes) {
    WorkloadLayer layer;
    layer.kind = WorkloadLayer::Kind::kApps;
    // Small applications on a 6x6 mesh keep the per-instance placement
    // search (routed scoring per candidate swap) affordable at suite scale.
    layer.apps = {
        AppSpec{AppSpec::Shape::kPipeline, 4, 1, 900.0},
        AppSpec{AppSpec::Shape::kStencil, 2, 2, 400.0},
    };
    layer.placement = placement;
    ScenarioSpec spec = single_layer_spec(std::move(layer));
    spec.mesh_p = 6;
    spec.mesh_q = 6;
    scenario.points.push_back({x, std::move(spec)});
    x += 1.0;
  }
  return scenario;
}

// -- Topology axis (topo=rect|torus|diag) ----------------------------------

Scenario topology_compare() {
  Scenario scenario;
  scenario.name = "topology_compare";
  scenario.description =
      "rect (0,3) vs torus (1,4) vs diag (2,5) on the fig7/fig8 workloads";
  scenario.x_label = "topo_x_workload";
  // Identical workloads per topology: the spec's grid draw ignores topo=,
  // so points k and k+3 route the very same communication sets. Workload A
  // (x 0..2) is fig7a's 40-comm uniform mix; workload B (x 3..5) is fig8's
  // near-constant 700 Mb/s weights.
  double x = 0.0;
  for (const auto& [lo, hi, n] :
       {std::tuple{100.0, 1500.0, 40}, std::tuple{699.0, 701.0, 20}}) {
    for (const topo::TopoKind kind :
         {topo::TopoKind::kRect, topo::TopoKind::kTorus, topo::TopoKind::kDiag}) {
      ScenarioSpec spec = single_layer_spec(
          uniform_layer(static_cast<std::int32_t>(n), lo, hi));
      spec.topo = kind;
      scenario.points.push_back({x, std::move(spec)});
      x += 1.0;
    }
  }
  return scenario;
}

Scenario topology_scaling() {
  Scenario scenario;
  scenario.name = "topology_scaling";
  scenario.description =
      "uniform load at fixed per-core density on 4x4..12x12 tori";
  scenario.x_label = "mesh_p";
  for (const std::int32_t p : {4, 6, 8, 10, 12}) {
    // Same density discipline as mesh_scaling, routed on the torus.
    ScenarioSpec spec = single_layer_spec(uniform_layer(5 * p * p / 8, 100.0, 1500.0));
    spec.mesh_p = p;
    spec.mesh_q = p;
    spec.topo = topo::TopoKind::kTorus;
    scenario.points.push_back({static_cast<double>(p), std::move(spec)});
  }
  return scenario;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry registry = [] {
    ScenarioRegistry built;
    // Figure 7 — sensitivity to the number of communications (§6.1).
    built.add(count_sweep("fig7a_small", "fig 7a: small comms U[100,1500), nc=10..140",
                          100.0, 1500.0, 140, 10));
    built.add(count_sweep("fig7b_mixed", "fig 7b: mixed comms U[100,2500), nc=5..70",
                          100.0, 2500.0, 70, 5));
    built.add(count_sweep("fig7c_big", "fig 7c: big comms U[2500,3500), nc=2..30",
                          2500.0, 3500.0, 30, 2));
    // Figure 8 — sensitivity to the size of communications (§6.2).
    built.add(weight_sweep("fig8a_few_10comms", "fig 8a: 10 comms, weight swept 100..3400",
                           10));
    built.add(weight_sweep("fig8b_some_20comms",
                           "fig 8b: 20 comms, weight swept 100..3400", 20));
    built.add(weight_sweep("fig8c_numerous_40comms",
                           "fig 8c: 40 comms, weight swept 100..3400", 40));
    // Figure 9 — sensitivity to the Manhattan length (§6.3).
    built.add(length_sweep("fig9a_numerous_small",
                           "fig 9a: 100 comms U[200,800), length 2..14", 100, 200.0,
                           800.0));
    built.add(length_sweep("fig9b_some_mixed",
                           "fig 9b: 25 comms U[100,3500), length 2..14", 25, 100.0,
                           3500.0));
    built.add(length_sweep("fig9c_few_big", "fig 9c: 12 comms U[2700,3300), length 2..14",
                           12, 2700.0, 3300.0));
    // Structured suites beyond the paper.
    built.add(permutation_sweep());
    built.add(transpose_ramp());
    built.add(hotspot_storm());
    built.add(multi_app_mix());
    built.add(mixed_background());
    built.add(uniform_burst());
    built.add(ablation_length_mix());
    // Workload layers beyond the generators: trace replay, open-loop
    // injection probes, mesh sweeps and placement modes.
    built.add(trace_replay());
    built.add(trace_burst());
    built.add(injection_sweep());
    built.add(injection_ramp());
    built.add(mesh_scaling());
    built.add(mesh_scaling_transpose());
    built.add(placement_modes());
    // Topology axis: same workloads, different interconnects.
    built.add(topology_compare());
    built.add(topology_scaling());
    return built;
  }();
  return registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  PAMR_CHECK(!scenario.name.empty(), "scenario needs a name");
  PAMR_CHECK(find(scenario.name) == nullptr,
             "duplicate scenario '" + scenario.name + "'");
  PAMR_CHECK(!scenario.points.empty(),
             "scenario '" + scenario.name + "' has no points");
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioRegistry::find(std::string_view name) const noexcept {
  for (const Scenario& scenario : scenarios_) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

const Scenario& ScenarioRegistry::at(std::string_view name) const {
  const Scenario* scenario = find(name);
  PAMR_CHECK(scenario != nullptr, unknown_name_message(name));
  return *scenario;
}

namespace {

/// Classic dynamic-programming Levenshtein distance; the catalogue is a
/// handful of short names, so the O(|a|·|b|) table is irrelevant.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

}  // namespace

std::string ScenarioRegistry::unknown_name_message(std::string_view name) const {
  std::string message = "unknown scenario '" + std::string(name) + "'";
  // Near misses: prefix matches (a truncated tab completion) and names
  // within a third of the query's length in edits (a typo).
  std::vector<std::pair<std::size_t, const std::string*>> ranked;
  const std::size_t budget = std::max<std::size_t>(2, name.size() / 3);
  for (const Scenario& scenario : scenarios_) {
    const std::string& candidate = scenario.name;
    std::size_t rank;
    if (!name.empty() && (candidate.rfind(name, 0) == 0 ||
                          name.rfind(candidate, 0) == 0)) {
      rank = 0;  // prefix relation beats any edit distance
    } else {
      rank = edit_distance(name, candidate);
      if (rank > budget) continue;
    }
    ranked.emplace_back(rank, &candidate);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  if (!ranked.empty()) {
    message += " (did you mean ";
    const std::size_t shown = std::min<std::size_t>(ranked.size(), 3);
    for (std::size_t i = 0; i < shown; ++i) {
      if (i > 0) message += i + 1 == shown ? " or " : ", ";
      message += "'" + *ranked[i].second + "'";
    }
    message += "?)";
  }
  message += "; available:";
  for (const Scenario& scenario : scenarios_) message += " " + scenario.name;
  return message;
}

}  // namespace scenario
}  // namespace pamr
