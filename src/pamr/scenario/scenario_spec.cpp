#include "pamr/scenario/scenario_spec.hpp"

#include <cmath>
#include <utility>

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "pamr/comm/generator.hpp"
#include "pamr/map/placement.hpp"
#include "pamr/scenario/trace.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/string_util.hpp"

namespace pamr {
namespace scenario {

// ---------------------------------------------------------------- AppSpec --

TaskGraph AppSpec::build() const {
  switch (shape) {
    case Shape::kPipeline: return TaskGraph::pipeline(a, bandwidth);
    case Shape::kForkJoin: return TaskGraph::fork_join(a, bandwidth);
    case Shape::kStencil: return TaskGraph::stencil(a, b, bandwidth);
  }
  PAMR_CHECK(false, "unknown application shape");
  return TaskGraph{};
}

std::int32_t AppSpec::num_tasks() const noexcept {
  switch (shape) {
    case Shape::kPipeline: return a;
    case Shape::kForkJoin: return a + 2;  // source + workers + sink
    case Shape::kStencil: return a * b;
  }
  return 0;  // unreachable
}

std::string AppSpec::to_string() const {
  switch (shape) {
    case Shape::kPipeline:
      return "pipeline:" + std::to_string(a) + ":" + format_exact(bandwidth, 10);
    case Shape::kForkJoin:
      return "forkjoin:" + std::to_string(a) + ":" + format_exact(bandwidth, 10);
    case Shape::kStencil:
      return "stencil:" + std::to_string(a) + ":" + std::to_string(b) + ":" +
             format_exact(bandwidth, 10);
  }
  return "?";  // unreachable
}

namespace {

/// Narrowing integer parse with explicit bounds — out-of-range input is a
/// parse error, never a silent truncation to 32 bits.
bool parse_i32(const std::string& text, std::int32_t lo, std::int32_t hi,
               std::int32_t& out) {
  std::int64_t parsed = 0;
  if (!parse_int64(text, parsed) || parsed < lo || parsed > hi) return false;
  out = static_cast<std::int32_t>(parsed);
  return true;
}

/// Finite positive-weight parse: rejects nan/inf as well as <= 0 (NaN
/// slips through naive `value <= 0` guards — every comparison is false).
bool parse_positive(const std::string& text, double& out) {
  double parsed = 0.0;
  if (!parse_double(text, parsed) || !std::isfinite(parsed) || !(parsed > 0.0)) {
    return false;
  }
  out = parsed;
  return true;
}

// Generous sanity ceilings: far above anything a CMP scenario means, low
// enough that derived quantities (p*q, stencil w*h) cannot overflow.
constexpr std::int32_t kMaxMeshDim = 1024;
constexpr std::int32_t kMaxComms = 1'000'000;
constexpr std::int32_t kMaxAppDim = 4096;

bool parse_app(std::string_view text, AppSpec& out, std::string& error) {
  const std::vector<std::string> fields = split(text, ':');
  AppSpec app;
  bool ok = false;
  if (fields.size() == 3 && (fields[0] == "pipeline" || fields[0] == "forkjoin")) {
    app.shape =
        fields[0] == "pipeline" ? AppSpec::Shape::kPipeline : AppSpec::Shape::kForkJoin;
    ok = parse_i32(fields[1], 1, kMaxAppDim, app.a) &&
         parse_positive(fields[2], app.bandwidth);
  } else if (fields.size() == 4 && fields[0] == "stencil") {
    app.shape = AppSpec::Shape::kStencil;
    ok = parse_i32(fields[1], 1, kMaxAppDim, app.a) &&
         parse_i32(fields[2], 1, kMaxAppDim, app.b) &&
         parse_positive(fields[3], app.bandwidth);
  }
  if (!ok) {
    error = "bad application '" + std::string(text) +
            "' (want pipeline:<n>:<bw>, forkjoin:<n>:<bw> or stencil:<w>:<h>:<bw>)";
    return false;
  }
  out = app;
  return true;
}

TrafficPattern* find_pattern(std::string_view name, TrafficPattern& storage) {
  for (const TrafficPattern pattern : all_traffic_patterns()) {
    if (name == to_cstring(pattern)) {
      storage = pattern;
      return &storage;
    }
  }
  return nullptr;
}

/// Multiplies every weight by `scale` — applied *after* the base draw so a
/// flat envelope (scale == 1) leaves the generator's stream and weights
/// bit-identical to a direct call.
void scale_weights(CommSet& comms, double scale) {
  if (scale == 1.0) return;
  if (scale == 0.0) {
    // An idle phase produces no traffic. Zero-weight communications are
    // not a degenerate routing input (Router::route rejects them via
    // check_comm_set) — they are the absence of communications.
    comms.clear();
    return;
  }
  for (Communication& comm : comms) comm.weight *= scale;
}

CommSet generate_hotspot_storm(const Mesh& mesh, const WorkloadLayer& layer, Rng& rng) {
  PAMR_CHECK(layer.num_hotspots >= 1, "need at least one hotspot");
  PAMR_CHECK(layer.num_hotspots < mesh.num_cores(),
             "hotspot set must leave at least one sender core");
  // Draw the hotspot set (distinct cores) by partial Fisher–Yates.
  std::vector<std::int32_t> cores(static_cast<std::size_t>(mesh.num_cores()));
  for (std::size_t i = 0; i < cores.size(); ++i) cores[i] = static_cast<std::int32_t>(i);
  std::vector<Coord> spots;
  spots.reserve(static_cast<std::size_t>(layer.num_hotspots));
  for (std::int32_t s = 0; s < layer.num_hotspots; ++s) {
    const std::size_t remaining = cores.size() - static_cast<std::size_t>(s);
    const std::size_t pick = static_cast<std::size_t>(s) + rng.below(remaining);
    std::swap(cores[static_cast<std::size_t>(s)], cores[pick]);
    spots.push_back(mesh.core_coord(cores[static_cast<std::size_t>(s)]));
  }
  // Senders converge on a uniformly chosen hotspot each.
  CommSet comms;
  comms.reserve(static_cast<std::size_t>(layer.num_comms));
  for (std::int32_t i = 0; i < layer.num_comms; ++i) {
    const Coord snk = spots[rng.below(spots.size())];
    Coord src = snk;
    while (src == snk) {
      src = mesh.core_coord(
          static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(mesh.num_cores()))));
    }
    comms.push_back(Communication{src, snk, rng.uniform(layer.weight_lo, layer.weight_hi)});
  }
  return comms;
}

CommSet generate_apps(const Mesh& mesh, const PowerModel& model,
                      const WorkloadLayer& layer, Rng& rng) {
  PAMR_CHECK(!layer.apps.empty(), "apps layer needs at least one application");
  std::vector<TaskGraph> graphs;
  graphs.reserve(layer.apps.size());
  std::int32_t total_tasks = 0;
  for (const AppSpec& app : layer.apps) {
    graphs.push_back(app.build());
    total_tasks += app.num_tasks();
  }
  PAMR_CHECK(total_tasks <= mesh.num_cores(), "applications do not fit the mesh");

  std::vector<MappedApplication> mapped;
  mapped.reserve(graphs.size());
  if (layer.placement == WorkloadLayer::Placement::kOptimized) {
    // Per-instance placement search: judged by the routed power of this
    // spec's model (not a hop proxy), seeded by the instance stream — so
    // two instances explore different placements, deterministically.
    std::vector<const TaskGraph*> pointers;
    pointers.reserve(graphs.size());
    for (const TaskGraph& graph : graphs) pointers.push_back(&graph);
    PlacementResult placed = optimize_placement(mesh, pointers, model, rng);
    PAMR_CHECK(placed.mappings.size() == graphs.size(),
               "one mapping per application expected");
    for (std::size_t a = 0; a < graphs.size(); ++a) {
      mapped.push_back(MappedApplication{&graphs[a], std::move(placed.mappings[a])});
    }
    return extract_communications(mapped);
  }
  std::int32_t placed = 0;
  for (const TaskGraph& graph : graphs) {
    Mapping mapping;
    switch (layer.placement) {
      case WorkloadLayer::Placement::kContiguous:
        mapping = map_row_major(graph, mesh, mesh.core_coord(placed));
        break;
      case WorkloadLayer::Placement::kScattered:
        mapping = map_random(graph, mesh, rng);
        break;
      case WorkloadLayer::Placement::kOptimized:
        PAMR_CHECK(false, "handled above");
        break;
    }
    placed += graph.num_tasks();
    mapped.push_back(MappedApplication{&graph, std::move(mapping)});
  }
  return extract_communications(mapped);
}

CommSet generate_trace_replay(const Mesh& mesh, const WorkloadLayer& layer, Rng& rng) {
  PAMR_CHECK(!layer.trace_file.empty(), "trace layer needs file=");
  const Trace& trace = load_trace(layer.trace_file);
  // The trace's bounding endpoints are precomputed at load, so this runs
  // per instance at O(1) instead of rescanning a 100k-row trace every draw.
  // Oversized core ids are bad *input* (a trace recorded on a bigger mesh),
  // not a logic error — reject with the offending CSV row so the user can
  // fix the file or the mesh= key.
  if (trace.max_u >= mesh.p() || trace.max_v >= mesh.q()) {
    const bool u_bad = trace.max_u >= mesh.p();
    const std::int32_t bound = u_bad ? trace.max_u : trace.max_v;
    const std::int32_t row = u_bad ? trace.max_u_row : trace.max_v_row;
    throw std::runtime_error(
        "trace replay: '" + layer.trace_file + "' row " + std::to_string(row) +
        " has " + (u_bad ? std::string("u") : std::string("v")) + "=" +
        std::to_string(bound) + ", outside the " + std::to_string(mesh.p()) +
        "x" + std::to_string(mesh.q()) + " mesh");
  }
  const CommSet& full = trace.comms;
  const auto want = static_cast<std::size_t>(layer.trace_sample);
  if (layer.trace_sample <= 0 || want >= full.size()) return full;
  // Deterministic subsample: Floyd's algorithm draws `want` distinct
  // indices from the instance RNG in O(want) hashed membership checks — no
  // O(|trace|) scratch per instance (sample= goes up to kMaxComms, so a
  // quadratic scan here would hang large draws) — then the subset replays
  // in trace order: the subset varies per instance, the ordering
  // discipline does not.
  // pamr-lint: ordered-ok (membership-only: the subset is sorted below before anything iterates it)
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(want);
  for (std::size_t j = full.size() - want; j < full.size(); ++j) {
    const std::size_t pick = rng.below(j + 1);
    if (!chosen.insert(pick).second) chosen.insert(j);  // j itself is unseen
  }
  std::vector<std::size_t> indices(chosen.begin(), chosen.end());
  std::sort(indices.begin(), indices.end());
  CommSet comms;
  comms.reserve(want);
  for (const std::size_t index : indices) comms.push_back(full[index]);
  return comms;
}

}  // namespace

// ---------------------------------------------------------- WorkloadLayer --

CommSet WorkloadLayer::generate(const Mesh& mesh, const PowerModel& model, double t,
                                Rng& rng) const {
  CommSet comms;
  switch (kind) {
    case Kind::kUniform: {
      UniformWorkload spec;
      spec.num_comms = num_comms;
      spec.weight_lo = weight_lo;
      spec.weight_hi = weight_hi;
      comms = generate_uniform(mesh, spec, rng);
      break;
    }
    case Kind::kFixedLength:
      comms = generate_with_length(mesh, num_comms, weight_lo, weight_hi, length, rng);
      break;
    case Kind::kPattern: {
      PatternSpec spec;
      spec.pattern = pattern;
      spec.weight = pattern_weight;
      spec.weight_jitter = jitter;
      spec.hotspot = hotspot;
      comms = generate_pattern(mesh, spec, rng);
      break;
    }
    case Kind::kHotspots:
      comms = generate_hotspot_storm(mesh, *this, rng);
      break;
    case Kind::kApps:
      comms = generate_apps(mesh, model, *this, rng);
      break;
    case Kind::kTrace:
      comms = generate_trace_replay(mesh, *this, rng);
      break;
  }
  scale_weights(comms, envelope.scale_at(t));
  return comms;
}

// ----------------------------------------------------------- ScenarioSpec --

PowerModel ScenarioSpec::make_model() const {
  switch (model) {
    case ModelKind::kDiscrete: return PowerModel::paper_discrete();
    case ModelKind::kTheory: return PowerModel::theory();
  }
  PAMR_CHECK(false, "unknown model kind");
  return PowerModel::paper_discrete();
}

CommSet ScenarioSpec::generate(const Mesh& mesh, const PowerModel& model, double t,
                               Rng& rng) const {
  CommSet comms;
  for (const WorkloadLayer& layer : layers) {
    CommSet drawn = layer.generate(mesh, model, t, rng);
    comms.insert(comms.end(), drawn.begin(), drawn.end());
  }
  return comms;
}

// Doubles print through format_exact(·, 10), here and in AppSpec and
// IntensityEnvelope: exact, so parse(to_string()) reloads every field bit
// for bit, and "%.10g" for short decimals, which keeps the registry's spec
// texts, and so campaign fingerprints, unchanged.
std::string ScenarioSpec::to_string() const {
  std::string out = "mesh=" + std::to_string(mesh_p) + "x" + std::to_string(mesh_q) +
                    " model=" + (model == ModelKind::kDiscrete ? "discrete" : "theory");
  // The default rect is omitted so pre-topology spec text round-trips
  // byte-identically (output files embed spec.to_string()).
  if (topo != topo::TopoKind::kRect) {
    out += " topo=" + std::string(topo::to_cstring(topo));
  }
  if (sim) {
    out += " sim=on cycles=" + std::to_string(sim_cycles) +
           " warmup=" + std::to_string(sim_warmup);
  }
  for (const WorkloadLayer& layer : layers) {
    out += " ;";
    switch (layer.kind) {
      case WorkloadLayer::Kind::kUniform:
        out += " kind=uniform n=" + std::to_string(layer.num_comms) +
               " lo=" + format_exact(layer.weight_lo, 10) +
               " hi=" + format_exact(layer.weight_hi, 10);
        break;
      case WorkloadLayer::Kind::kFixedLength:
        out += " kind=length n=" + std::to_string(layer.num_comms) +
               " lo=" + format_exact(layer.weight_lo, 10) +
               " hi=" + format_exact(layer.weight_hi, 10) +
               " len=" + std::to_string(layer.length);
        break;
      case WorkloadLayer::Kind::kPattern:
        out += " kind=pattern pattern=" + std::string(to_cstring(layer.pattern)) +
               " weight=" + format_exact(layer.pattern_weight, 10);
        if (layer.jitter != 0.0) out += " jitter=" + format_exact(layer.jitter, 10);
        if (layer.pattern == TrafficPattern::kHotspot) {
          out += " hotspot=" + std::to_string(layer.hotspot.u) + "," +
                 std::to_string(layer.hotspot.v);
        }
        break;
      case WorkloadLayer::Kind::kHotspots:
        out += " kind=hotspots spots=" + std::to_string(layer.num_hotspots) +
               " n=" + std::to_string(layer.num_comms) +
               " lo=" + format_exact(layer.weight_lo, 10) +
               " hi=" + format_exact(layer.weight_hi, 10);
        break;
      case WorkloadLayer::Kind::kApps: {
        out += " kind=apps apps=";
        for (std::size_t i = 0; i < layer.apps.size(); ++i) {
          if (i > 0) out += '+';
          out += layer.apps[i].to_string();
        }
        out += " place=";
        switch (layer.placement) {
          case WorkloadLayer::Placement::kContiguous: out += "contiguous"; break;
          case WorkloadLayer::Placement::kScattered: out += "scattered"; break;
          case WorkloadLayer::Placement::kOptimized: out += "optimized"; break;
        }
        break;
      }
      case WorkloadLayer::Kind::kTrace:
        out += " kind=trace file=" + layer.trace_file;
        if (layer.trace_sample > 0) {
          out += " sample=" + std::to_string(layer.trace_sample);
        }
        break;
    }
    if (!layer.envelope.flat()) out += " envelope=" + layer.envelope.to_string();
  }
  return out;
}

namespace {

struct KeyValue {
  std::string key;
  std::string value;
};

bool tokenize_section(std::string_view section, std::vector<KeyValue>& out,
                      std::string& error) {
  for (const std::string& raw : split(section, ' ')) {
    const std::string_view token = trim(raw);
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      error = "expected key=value, got '" + std::string(token) + "'";
      return false;
    }
    // A repeated key would make the text mean its last value while
    // to_string() prints only that one, so the input could not round-trip.
    std::string key(token.substr(0, eq));
    for (const KeyValue& seen : out) {
      if (seen.key == key) {
        error = "key '" + key + "' given twice";
        return false;
      }
    }
    out.push_back(KeyValue{std::move(key), std::string(token.substr(eq + 1))});
  }
  return true;
}

constexpr std::int64_t kMaxSimCycles = 1'000'000'000;

bool parse_global(const std::vector<KeyValue>& pairs, ScenarioSpec& spec,
                  std::string& error) {
  bool have_sim_detail = false;  // cycles=/warmup= seen (require sim=on)
  for (const KeyValue& kv : pairs) {
    if (kv.key == "sim") {
      if (kv.value == "on") {
        spec.sim = true;
      } else if (kv.value == "off") {
        spec.sim = false;
      } else {
        error = "bad sim '" + kv.value + "' (want on or off)";
        return false;
      }
    } else if (kv.key == "cycles") {
      std::int64_t cycles = 0;
      if (!parse_int64(kv.value, cycles) || cycles < 1 || cycles > kMaxSimCycles) {
        error = "bad cycles '" + kv.value + "' (want 1.." +
                std::to_string(kMaxSimCycles) + ")";
        return false;
      }
      spec.sim_cycles = cycles;
      have_sim_detail = true;
    } else if (kv.key == "warmup") {
      std::int64_t warmup = 0;
      if (!parse_int64(kv.value, warmup) || warmup < 0 || warmup > kMaxSimCycles) {
        error = "bad warmup '" + kv.value + "' (want 0.." +
                std::to_string(kMaxSimCycles) + ")";
        return false;
      }
      spec.sim_warmup = warmup;
      have_sim_detail = true;
    } else if (kv.key == "mesh") {
      const std::vector<std::string> dims = split(kv.value, 'x');
      if (dims.size() != 2 || !parse_i32(dims[0], 1, kMaxMeshDim, spec.mesh_p) ||
          !parse_i32(dims[1], 1, kMaxMeshDim, spec.mesh_q)) {
        error = "bad mesh '" + kv.value + "' (want <p>x<q>)";
        return false;
      }
    } else if (kv.key == "model") {
      if (kv.value == "discrete") {
        spec.model = ScenarioSpec::ModelKind::kDiscrete;
      } else if (kv.value == "theory") {
        spec.model = ScenarioSpec::ModelKind::kTheory;
      } else {
        error = "bad model '" + kv.value + "' (want discrete or theory)";
        return false;
      }
    } else if (kv.key == "topo") {
      if (!topo::parse_topo_kind(kv.value, spec.topo)) {
        error = "bad topo '" + kv.value + "' (want rect, torus or diag)";
        return false;
      }
    } else {
      error = "unknown global key '" + kv.key + "'";
      return false;
    }
  }
  if (have_sim_detail && !spec.sim) {
    error = "cycles=/warmup= need sim=on";
    return false;
  }
  if (spec.sim && spec.sim_warmup >= spec.sim_cycles) {
    error = "warmup=" + std::to_string(spec.sim_warmup) +
            " must be below cycles=" + std::to_string(spec.sim_cycles);
    return false;
  }
  return true;
}

/// Whether to_string() prints `key` for `layer`: the keys of its kind, with
/// hotspot= only under pattern=hotspot, plus kind= and envelope= on every
/// kind. Any other key would be parsed and then silently ignored.
bool layer_prints_key(const WorkloadLayer& layer, std::string_view key) {
  if (key == "kind" || key == "envelope") return true;
  const bool weight_range = key == "n" || key == "lo" || key == "hi";
  switch (layer.kind) {
    case WorkloadLayer::Kind::kUniform: return weight_range;
    case WorkloadLayer::Kind::kFixedLength: return weight_range || key == "len";
    case WorkloadLayer::Kind::kPattern:
      return key == "pattern" || key == "weight" || key == "jitter" ||
             (key == "hotspot" && layer.pattern == TrafficPattern::kHotspot);
    case WorkloadLayer::Kind::kHotspots: return weight_range || key == "spots";
    case WorkloadLayer::Kind::kApps: return key == "apps" || key == "place";
    case WorkloadLayer::Kind::kTrace: return key == "file" || key == "sample";
  }
  return false;
}

bool parse_layer(const std::vector<KeyValue>& pairs, WorkloadLayer& out,
                 std::string& error) {
  WorkloadLayer layer;
  const std::string* kind_name = nullptr;
  for (const KeyValue& kv : pairs) {
    if (kv.key == "kind") {
      kind_name = &kv.value;
      if (kv.value == "uniform") {
        layer.kind = WorkloadLayer::Kind::kUniform;
      } else if (kv.value == "length") {
        layer.kind = WorkloadLayer::Kind::kFixedLength;
      } else if (kv.value == "pattern") {
        layer.kind = WorkloadLayer::Kind::kPattern;
      } else if (kv.value == "hotspots") {
        layer.kind = WorkloadLayer::Kind::kHotspots;
      } else if (kv.value == "apps") {
        layer.kind = WorkloadLayer::Kind::kApps;
      } else if (kv.value == "trace") {
        layer.kind = WorkloadLayer::Kind::kTrace;
      } else {
        error = "unknown layer kind '" + kv.value + "'";
        return false;
      }
    } else if (kv.key == "n") {
      if (!parse_i32(kv.value, 0, kMaxComms, layer.num_comms)) {
        error = "bad n '" + kv.value + "'";
        return false;
      }
    } else if (kv.key == "lo") {
      if (!parse_double(kv.value, layer.weight_lo)) {
        error = "bad lo '" + kv.value + "'";
        return false;
      }
    } else if (kv.key == "hi") {
      if (!parse_double(kv.value, layer.weight_hi)) {
        error = "bad hi '" + kv.value + "'";
        return false;
      }
    } else if (kv.key == "len") {
      if (!parse_i32(kv.value, 1, 2 * kMaxMeshDim, layer.length)) {
        error = "bad len '" + kv.value + "'";
        return false;
      }
    } else if (kv.key == "pattern") {
      if (find_pattern(kv.value, layer.pattern) == nullptr) {
        error = "unknown pattern '" + kv.value + "'";
        return false;
      }
    } else if (kv.key == "weight") {
      if (!parse_positive(kv.value, layer.pattern_weight)) {
        error = "bad weight '" + kv.value + "'";
        return false;
      }
    } else if (kv.key == "jitter") {
      if (!parse_double(kv.value, layer.jitter) ||
          !(layer.jitter >= 0.0 && layer.jitter < 1.0)) {
        error = "bad jitter '" + kv.value + "' (want [0, 1))";
        return false;
      }
      layer.jitter += 0.0;  // -0 becomes +0: to_string omits a zero jitter
    } else if (kv.key == "hotspot") {
      const std::vector<std::string> parts = split(kv.value, ',');
      if (parts.size() != 2 ||
          !parse_i32(parts[0], 0, kMaxMeshDim - 1, layer.hotspot.u) ||
          !parse_i32(parts[1], 0, kMaxMeshDim - 1, layer.hotspot.v)) {
        error = "bad hotspot '" + kv.value + "' (want <u>,<v>)";
        return false;
      }
    } else if (kv.key == "spots") {
      if (!parse_i32(kv.value, 1, kMaxComms, layer.num_hotspots)) {
        error = "bad spots '" + kv.value + "'";
        return false;
      }
    } else if (kv.key == "apps") {
      layer.apps.clear();
      for (const std::string& part : split(kv.value, '+')) {
        AppSpec app;
        if (!parse_app(part, app, error)) return false;
        layer.apps.push_back(app);
      }
    } else if (kv.key == "place") {
      if (kv.value == "contiguous") {
        layer.placement = WorkloadLayer::Placement::kContiguous;
      } else if (kv.value == "scattered") {
        layer.placement = WorkloadLayer::Placement::kScattered;
      } else if (kv.value == "optimized") {
        layer.placement = WorkloadLayer::Placement::kOptimized;
      } else {
        error = "bad place '" + kv.value +
                "' (want contiguous, scattered or optimized)";
        return false;
      }
    } else if (kv.key == "file") {
      // Tokenization already guarantees no spaces/';' — an empty value is
      // the only way to smuggle a broken reference past the round trip.
      if (kv.value.empty()) {
        error = "bad file '' (want a CSV path)";
        return false;
      }
      layer.trace_file = kv.value;
    } else if (kv.key == "sample") {
      if (!parse_i32(kv.value, 1, kMaxComms, layer.trace_sample)) {
        error = "bad sample '" + kv.value + "'";
        return false;
      }
    } else if (kv.key == "envelope") {
      if (!IntensityEnvelope::parse(kv.value, layer.envelope, error)) return false;
    } else {
      error = "unknown layer key '" + kv.key + "'";
      return false;
    }
  }
  if (kind_name == nullptr) {
    error = "layer is missing kind=";
    return false;
  }
  for (const KeyValue& kv : pairs) {
    if (!layer_prints_key(layer, kv.key)) {
      error = "key '" + kv.key + "' does not belong to kind=" + *kind_name;
      if (layer.kind == WorkloadLayer::Kind::kPattern) {
        error += " pattern=" + std::string(to_cstring(layer.pattern));
      }
      return false;
    }
  }
  if ((layer.kind == WorkloadLayer::Kind::kUniform ||
       layer.kind == WorkloadLayer::Kind::kFixedLength ||
       layer.kind == WorkloadLayer::Kind::kHotspots) &&
      !(std::isfinite(layer.weight_lo) && std::isfinite(layer.weight_hi) &&
        layer.weight_lo > 0.0 && layer.weight_hi >= layer.weight_lo)) {
    error = "bad weight range [" + format_compact(layer.weight_lo) + ", " +
            format_compact(layer.weight_hi) + ")";
    return false;
  }
  if (layer.kind == WorkloadLayer::Kind::kFixedLength && layer.length < 1) {
    error = "length layer needs len=";
    return false;
  }
  if (layer.kind == WorkloadLayer::Kind::kApps && layer.apps.empty()) {
    error = "apps layer needs apps=";
    return false;
  }
  if (layer.kind == WorkloadLayer::Kind::kTrace && layer.trace_file.empty()) {
    error = "trace layer needs file=";
    return false;
  }
  out = std::move(layer);
  return true;
}

}  // namespace

namespace {

/// Cross-field checks a single layer cannot do alone: every mesh-dependent
/// precondition that generate() would otherwise only trip at run time.
bool validate_against_mesh(const ScenarioSpec& spec, std::string& error) {
  const std::int32_t cores = spec.mesh_p * spec.mesh_q;
  if (spec.sim && spec.topo != topo::TopoKind::kRect) {
    // The cycle simulator models the rectangular router pipeline.
    error = "sim=on needs topo=rect";
    return false;
  }
  for (const WorkloadLayer& layer : spec.layers) {
    if (layer.kind == WorkloadLayer::Kind::kApps &&
        layer.placement == WorkloadLayer::Placement::kOptimized &&
        spec.topo != topo::TopoKind::kRect) {
      // optimize_placement judges placements by mesh-routed power.
      error = "place=optimized needs topo=rect";
      return false;
    }
    switch (layer.kind) {
      case WorkloadLayer::Kind::kPattern:
        if (layer.pattern == TrafficPattern::kTranspose && spec.mesh_p != spec.mesh_q) {
          error = "transpose needs a square mesh";
          return false;
        }
        if ((layer.pattern == TrafficPattern::kBitReverse ||
             layer.pattern == TrafficPattern::kShuffle) &&
            (cores & (cores - 1)) != 0) {
          error = "bit patterns need a power-of-two core count";
          return false;
        }
        if (layer.pattern == TrafficPattern::kHotspot &&
            !(layer.hotspot.u < spec.mesh_p && layer.hotspot.v < spec.mesh_q)) {
          error = "hotspot " + std::to_string(layer.hotspot.u) + "," +
                  std::to_string(layer.hotspot.v) + " outside the mesh";
          return false;
        }
        break;
      case WorkloadLayer::Kind::kHotspots:
        if (layer.num_hotspots >= cores) {
          error = "spots=" + std::to_string(layer.num_hotspots) +
                  " must leave at least one sender core";
          return false;
        }
        break;
      case WorkloadLayer::Kind::kApps: {
        std::int32_t tasks = 0;
        for (const AppSpec& app : layer.apps) tasks += app.num_tasks();
        if (tasks > cores) {
          error = "applications need " + std::to_string(tasks) + " cores, mesh has " +
                  std::to_string(cores);
          return false;
        }
        break;
      }
      case WorkloadLayer::Kind::kFixedLength:
        // The generator would clamp a longer target and draw flows shorter
        // than the spec's label says.
        if (layer.length > spec.mesh_p + spec.mesh_q - 2) {
          error = "len=" + std::to_string(layer.length) +
                  " exceeds the mesh's longest Manhattan distance p+q-2 = " +
                  std::to_string(spec.mesh_p + spec.mesh_q - 2);
          return false;
        }
        [[fallthrough]];
      case WorkloadLayer::Kind::kUniform:
        if (layer.num_comms > 0 && cores < 2) {
          error = "random endpoints need at least two cores";
          return false;
        }
        break;
      case WorkloadLayer::Kind::kTrace:
        // Endpoint bounds live in the file, not the spec; load_trace checks
        // them against the mesh when the layer first replays.
        break;
    }
  }
  return true;
}

}  // namespace

bool ScenarioSpec::parse(std::string_view text, ScenarioSpec& out, std::string& error) {
  ScenarioSpec spec;
  const std::vector<std::string> sections = split(text, ';');
  for (std::size_t i = 0; i < sections.size(); ++i) {
    std::vector<KeyValue> pairs;
    if (!tokenize_section(sections[i], pairs, error)) return false;
    if (i == 0) {
      if (!parse_global(pairs, spec, error)) return false;
      continue;
    }
    WorkloadLayer layer;
    if (!parse_layer(pairs, layer, error)) return false;
    spec.layers.push_back(std::move(layer));
  }
  if (!validate_against_mesh(spec, error)) return false;
  out = std::move(spec);
  return true;
}

}  // namespace scenario
}  // namespace pamr
