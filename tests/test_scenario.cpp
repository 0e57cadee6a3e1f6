// Tests for the scenario subsystem: envelope semantics, spec parse/print
// round-trips (including a seeded mutation battery over the registry's spec
// texts), registry completeness, suite-runner determinism across thread
// counts, and result export.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "pamr/comm/generator.hpp"
#include "pamr/scenario/suite_runner.hpp"
#include "pamr/util/rng.hpp"
#include "pamr/util/string_util.hpp"

namespace pamr {
namespace scenario {
namespace {

TEST(Envelope, FlatIsOneEverywhere) {
  const IntensityEnvelope flat;
  EXPECT_TRUE(flat.flat());
  EXPECT_DOUBLE_EQ(flat.scale_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(flat.scale_at(0.7), 1.0);
  EXPECT_EQ(flat.to_string(), "");
}

TEST(Envelope, PhaseShapes) {
  EXPECT_DOUBLE_EQ(IntensityEnvelope::constant(2.5).scale_at(0.3), 2.5);
  const IntensityEnvelope ramp = IntensityEnvelope::ramp(1.0, 3.0);
  EXPECT_DOUBLE_EQ(ramp.scale_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ramp.scale_at(0.5), 2.0);
  EXPECT_NEAR(ramp.scale_at(1.0), 3.0, 1e-9);  // clamped just below t=1
  const IntensityEnvelope burst = IntensityEnvelope::burst(1.0, 4.0, 0.25);
  EXPECT_DOUBLE_EQ(burst.scale_at(0.1), 4.0);  // inside the duty window
  EXPECT_DOUBLE_EQ(burst.scale_at(0.5), 1.0);  // back to base
}

TEST(Envelope, MultiPhaseSplitsTheUnitInterval) {
  IntensityEnvelope envelope;
  std::string error;
  ASSERT_TRUE(IntensityEnvelope::parse("const:2/ramp:1:3", envelope, error)) << error;
  EXPECT_DOUBLE_EQ(envelope.scale_at(0.25), 2.0);  // first phase
  EXPECT_DOUBLE_EQ(envelope.scale_at(0.75), 2.0);  // ramp midpoint
  EXPECT_DOUBLE_EQ(envelope.scale_at(0.5), 1.0);   // ramp start
}

TEST(Envelope, RoundTripAndErrors) {
  for (const char* text : {"", "const:2", "ramp:1:3", "burst:1:4:0.25",
                           "const:0.5/ramp:100:3500/burst:1:2:0.75"}) {
    IntensityEnvelope envelope;
    std::string error;
    ASSERT_TRUE(IntensityEnvelope::parse(text, envelope, error)) << error;
    EXPECT_EQ(envelope.to_string(), text);
    IntensityEnvelope reparsed;
    ASSERT_TRUE(IntensityEnvelope::parse(envelope.to_string(), reparsed, error));
    EXPECT_EQ(reparsed, envelope);
  }
  for (const char* bad : {"ramp:1", "burst:1:2:1.5", "wave:1:2", "const:-1"}) {
    IntensityEnvelope envelope;
    std::string error;
    EXPECT_FALSE(IntensityEnvelope::parse(bad, envelope, error)) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(Spec, ZeroScalePhaseGeneratesNoTraffic) {
  // An idle (scale 0) envelope phase must yield an *empty* CommSet, not
  // zero-weight communications — Router::route rejects those as malformed
  // input (check_comm_set).
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::parse(
      "mesh=4x4 model=discrete ; kind=uniform n=12 lo=100 hi=900"
      " envelope=burst:0:2:0.25",
      spec, error))
      << error;
  const Mesh mesh = spec.make_mesh();
  const PowerModel model = spec.make_model();
  Rng off_rng(7);
  const CommSet off = spec.generate(mesh, model, 0.5, off_rng);  // past the duty window
  EXPECT_TRUE(off.empty());
  Rng on_rng(7);
  const CommSet on = spec.generate(mesh, model, 0.1, on_rng);  // inside the duty window
  EXPECT_EQ(on.size(), 12u);
}

TEST(Spec, RoundTripsEveryRegistryPoint) {
  for (const Scenario& scenario : ScenarioRegistry::builtin().scenarios()) {
    for (const ScenarioPoint& point : scenario.points) {
      const std::string text = point.spec.to_string();
      ScenarioSpec reparsed;
      std::string error;
      ASSERT_TRUE(ScenarioSpec::parse(text, reparsed, error))
          << scenario.name << ": " << error;
      EXPECT_EQ(reparsed, point.spec) << scenario.name << ": " << text;
    }
  }
}

TEST(Spec, RoundTripsAMultiLayerKitchenSink) {
  const std::string text =
      "mesh=6x8 model=theory"
      " ; kind=uniform n=25 lo=150 hi=950.5 envelope=ramp:0.5:2"
      " ; kind=length n=10 lo=200 hi=800 len=7"
      " ; kind=pattern pattern=hotspot weight=650 jitter=0.1 hotspot=2,3"
      " ; kind=hotspots spots=3 n=30 lo=100 hi=400 envelope=burst:1:3:0.5"
      " ; kind=apps apps=pipeline:4:1000+stencil:2:3:250 place=scattered";
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::parse(text, spec, error)) << error;
  EXPECT_EQ(spec.mesh_p, 6);
  EXPECT_EQ(spec.mesh_q, 8);
  EXPECT_EQ(spec.model, ScenarioSpec::ModelKind::kTheory);
  ASSERT_EQ(spec.layers.size(), 5u);
  EXPECT_EQ(spec.layers[2].pattern, TrafficPattern::kHotspot);
  EXPECT_EQ(spec.layers[2].hotspot, (Coord{2, 3}));
  EXPECT_EQ(spec.layers[4].apps.size(), 2u);
  EXPECT_EQ(spec.to_string(), text);
}

TEST(Spec, ParseRejectsMalformedInput) {
  ScenarioSpec spec;
  std::string error;
  for (const char* bad : {
           "mesh=8 model=discrete",                      // bad mesh
           "model=maxwell",                              // bad model
           "bogus=1",                                    // unknown global key
           "mesh=8x8 ; n=10",                            // layer missing kind
           "mesh=8x8 ; kind=waves",                      // unknown kind
           "mesh=8x8 ; kind=uniform n=10 lo=500 hi=100", // inverted range
           "mesh=8x8 ; kind=length n=10",                // missing len
           "mesh=8x8 ; kind=apps place=contiguous",      // missing apps
           "mesh=8x8 ; kind=pattern pattern=zigzag",     // unknown pattern
           "mesh=8x8 ; kind=uniform envelope=ramp:1",    // bad envelope
           "mesh=4294967304x8",                          // would truncate to 8
           "mesh=8x8 ; kind=uniform n=2147483648",       // would wrap negative
           "mesh=8x8 ; kind=pattern pattern=transpose weight=nan",
           "mesh=8x8 ; kind=pattern pattern=transpose weight=700 jitter=nan",
           "mesh=8x8 ; kind=uniform n=10 lo=100 hi=inf", // non-finite range
           "mesh=8x8 ; kind=apps apps=stencil:65536:65536:100",  // w*h overflow
           "mesh=3x4 ; kind=pattern pattern=transpose weight=500",  // not square
           "mesh=2x2 ; kind=hotspots spots=4 n=5 lo=100 hi=200",  // no senders left
           "mesh=2x2 ; kind=apps apps=pipeline:8:500",   // apps don't fit
           "mesh=8x8 ; kind=pattern pattern=hotspot weight=500 hotspot=8,0",
       }) {
    error.clear();
    EXPECT_FALSE(ScenarioSpec::parse(bad, spec, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Keys to_string() would not print, and repeated keys, are rejected by
  // name: parse(to_string(parse(s))) must equal parse(s).
  for (const auto& [bad, message] : std::vector<std::pair<const char*, const char*>>{
           {"mesh=4x4 ; kind=uniform n=4 lo=100 hi=200 weight=5 pattern=shuffle len=3 "
            "file=x.csv apps=pipeline:2:100",
            "key 'weight' does not belong to kind=uniform"},
           {"mesh=4x4 ; kind=uniform n=4 lo=100 hi=200 len=3",
            "key 'len' does not belong to kind=uniform"},
           {"mesh=4x4 ; kind=length n=4 lo=100 hi=200 len=3 spots=2",
            "key 'spots' does not belong to kind=length"},
           {"mesh=4x4 ; kind=hotspots spots=2 n=4 lo=100 hi=200 place=scattered",
            "key 'place' does not belong to kind=hotspots"},
           {"mesh=4x4 ; kind=pattern pattern=transpose weight=500 n=4",
            "key 'n' does not belong to kind=pattern pattern=transpose"},
           {"mesh=4x4 ; kind=pattern pattern=transpose weight=500 hotspot=1,1",
            "key 'hotspot' does not belong to kind=pattern pattern=transpose"},
           {"mesh=4x4 ; kind=apps apps=pipeline:2:100 lo=100",
            "key 'lo' does not belong to kind=apps"},
           {"mesh=4x4 ; kind=trace file=t.csv weight=5",
            "key 'weight' does not belong to kind=trace"},
           {"mesh=4x4 mesh=8x8 ; kind=uniform n=4 n=6 lo=100 hi=200 kind=length len=3",
            "key 'mesh' given twice"},
           {"mesh=4x4 ; kind=uniform n=4 n=6 lo=100 hi=200 kind=length len=3",
            "key 'n' given twice"},
           {"mesh=4x4 sim=on sim=off", "key 'sim' given twice"},
           // The generator would clamp the target and draw length-14 flows.
           {"mesh=8x8 ; kind=length n=10 lo=100 hi=200 len=15",
            "len=15 exceeds the mesh's longest Manhattan distance p+q-2 = 14"},
       }) {
    error.clear();
    EXPECT_FALSE(ScenarioSpec::parse(bad, spec, error)) << bad;
    EXPECT_EQ(error, message) << bad;
  }
  // hotspot= belongs to a pattern layer once pattern=hotspot, in any order.
  EXPECT_TRUE(ScenarioSpec::parse(
      "mesh=4x4 ; kind=pattern hotspot=1,1 pattern=hotspot weight=500", spec, error))
      << error;
}

/// Every double of a spec, as bits: `==` cannot tell -0 from +0.
std::vector<std::uint64_t> double_bits(const ScenarioSpec& spec) {
  std::vector<std::uint64_t> bits;
  const auto add = [&bits](double value) { bits.push_back(std::bit_cast<std::uint64_t>(value)); };
  for (const WorkloadLayer& layer : spec.layers) {
    add(layer.weight_lo);
    add(layer.weight_hi);
    add(layer.pattern_weight);
    add(layer.jitter);
    for (const AppSpec& app : layer.apps) add(app.bandwidth);
    for (const EnvelopePhase& phase : layer.envelope.phases()) {
      add(phase.a);
      add(phase.b);
      add(phase.duty);
    }
  }
  return bits;
}

/// The round-trip property of an accepted spec: its text parses back to the
/// same spec bit for bit, and printing is a fixed point.
void expect_exact_round_trip(const ScenarioSpec& spec, const std::string& label) {
  const std::string printed = spec.to_string();
  ScenarioSpec reparsed;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::parse(printed, reparsed, error))
      << label << " printed as " << printed << ": " << error;
  EXPECT_TRUE(reparsed == spec && double_bits(reparsed) == double_bits(spec))
      << label << " printed as " << printed;
  EXPECT_EQ(reparsed.to_string(), printed) << label;
}

TEST(Spec, RoundTripsLongDecimalsInEveryDoubleField) {
  // Each text holds doubles that "%.10g" would round: lo, hi, pattern
  // weight, jitter, app bandwidths and envelope phases.
  for (const char* text : {
           "mesh=8x8 ; kind=uniform n=30 lo=100.123456789012 hi=1500.98765432101"
           " envelope=ramp:0.123456789012345:1.98765432109876",
           "mesh=8x8 ; kind=length n=4 lo=100.000000000001 hi=200.5 len=3"
           " envelope=burst:0.5000000000001:1.7777777777777:0.33333333333333",
           "mesh=8x8 ; kind=pattern pattern=transpose weight=700.123456789012"
           " jitter=0.123456789012345 envelope=const:1.00000000000001",
           "mesh=8x8 ; kind=hotspots spots=2 n=5 lo=100.1234567890123 hi=200.9876543210987",
           "mesh=8x8 ; kind=apps apps=pipeline:3:600.123456789012+forkjoin:2:300.98765432101"
           "+stencil:2:2:123.456789012345 place=scattered",
       }) {
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(ScenarioSpec::parse(text, spec, error)) << text << ": " << error;
    expect_exact_round_trip(spec, text);
  }
  // Short decimals keep their "%.10g" form.
  ScenarioSpec spec;
  std::string error;
  // jitter=-0 means no jitter, which to_string omits: it must come back as
  // the same bits.
  ASSERT_TRUE(ScenarioSpec::parse(
      "mesh=8x8 ; kind=pattern pattern=transpose weight=700 jitter=-0", spec, error));
  expect_exact_round_trip(spec, "jitter=-0");
  ASSERT_TRUE(ScenarioSpec::parse("mesh=8x8 ; kind=uniform n=3 lo=100.5 hi=1500", spec,
                                  error));
  EXPECT_EQ(spec.to_string(), "mesh=8x8 model=discrete ; kind=uniform n=3 lo=100.5 hi=1500");
}

/// `token` (key=value) with one run of digits and dots in its value replaced
/// by a long decimal of the same integer part, e.g. "lo=100" ->
/// "lo=100.482019384751"; `token` itself when its value holds no number.
std::string with_long_decimal(const std::string& token, Rng& rng) {
  const std::size_t eq = token.find('=');
  std::vector<std::pair<std::size_t, std::size_t>> runs;  // [begin, end)
  for (std::size_t i = eq + 1; i < token.size();) {
    if (std::isdigit(static_cast<unsigned char>(token[i])) == 0) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < token.size() &&
           (std::isdigit(static_cast<unsigned char>(token[i])) != 0 || token[i] == '.')) {
      ++i;
    }
    runs.emplace_back(begin, i);
  }
  if (runs.empty()) return token;
  const auto [begin, end] = runs[rng.below(runs.size())];
  const std::string number = token.substr(begin, end - begin);
  std::string decimal = number.substr(0, number.find('.')) + ".";
  const auto digits = 11 + rng.below(5);
  for (std::uint64_t d = 0; d < digits; ++d) decimal += static_cast<char>('0' + rng.below(10));
  decimal += static_cast<char>('1' + rng.below(9));  // no trailing zero
  return token.substr(0, begin) + decimal + token.substr(end);
}

TEST(SpecFuzz, MutatedRegistryTextsAreRejectedOrRoundTripExactly) {
  // Structure-aware mutants of every registry point's spec text: drop,
  // duplicate or swap a token, add a foreign or repeated key, or replace a
  // value with an adversarial one or a long decimal. Each mutant must be
  // rejected with a message (never an exception), or parse to a spec that
  // round-trips through its text bit for bit.
  std::vector<std::string> corpus;
  for (const Scenario& scenario : ScenarioRegistry::builtin().scenarios()) {
    for (const ScenarioPoint& point : scenario.points) {
      corpus.push_back(point.spec.to_string());
    }
  }
  const std::vector<std::string> keys = {
      "mesh=4x4",    "model=theory", "topo=torus",  "sim=on",      "cycles=100",
      "warmup=10",   "kind=uniform", "n=4",         "lo=100",      "hi=200",
      "len=3",       "pattern=shuffle", "weight=5", "jitter=0.5",  "hotspot=1,1",
      "spots=2",     "apps=pipeline:2:100", "place=scattered", "file=t.csv",
      "sample=3",    "envelope=const:2", "bogus=1"};
  const std::vector<std::string> values = {
      "nan", "inf", "-inf", "1e308", "1e999", "-5", "-0", "", "0", "1",
      "2147483648", "100.123456789012", "0.30000000000000004"};
  constexpr int kMutants = 2000;
  Rng rng(0x5bec);
  int accepted = 0;
  int long_decimals_accepted = 0;
  for (int m = 0; m < kMutants; ++m) {
    const std::string& base = corpus[rng.below(corpus.size())];
    std::vector<std::string> tokens = split(base, ' ');
    const auto pick = [&] { return static_cast<std::size_t>(rng.below(tokens.size())); };
    const auto valued = [&] {  // a token holding a value, if a few draws find one
      std::size_t at = pick();
      for (int tries = 0; tries < 8 && tokens[at].find('=') == std::string::npos; ++tries) {
        at = pick();
      }
      return at;
    };
    const auto kind = rng.below(6);
    switch (kind) {
      case 0: tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(pick())); break;
      case 1: {
        const std::string copy = tokens[pick()];
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(pick()), copy);
        break;
      }
      case 2: std::swap(tokens[pick()], tokens[pick()]); break;
      case 3:
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(pick()),
                      keys[rng.below(keys.size())]);
        break;
      case 4: {
        std::string& token = tokens[valued()];
        const std::size_t eq = token.find('=');
        if (eq != std::string::npos) {
          token = token.substr(0, eq + 1) + values[rng.below(values.size())];
        }
        break;
      }
      default: {
        std::string& token = tokens[valued()];
        if (token.find('=') != std::string::npos) token = with_long_decimal(token, rng);
        break;
      }
    }
    const std::string text = join(tokens, " ");
    ScenarioSpec spec;
    std::string error;
    bool ok = false;
    ASSERT_NO_THROW(ok = ScenarioSpec::parse(text, spec, error)) << text;
    if (!ok) {
      EXPECT_FALSE(error.empty()) << text;
      continue;
    }
    ++accepted;
    if (kind == 5 && text != base) ++long_decimals_accepted;
    expect_exact_round_trip(spec, text);
  }
  // The battery must exercise both outcomes and the long decimals.
  EXPECT_GT(accepted, kMutants / 10);
  EXPECT_LT(accepted, kMutants * 9 / 10);
  EXPECT_GT(long_decimals_accepted, kMutants / 20);
}

TEST(Registry, CatalogueIsCompleteAndGeneratesEverywhere) {
  // The trace suites reference committed files relative to the repo root;
  // resolve them through $PAMR_TRACE_DIR wherever ctest happens to run.
  ASSERT_EQ(setenv("PAMR_TRACE_DIR", PAMR_REPO_DIR, /*overwrite=*/1), 0);
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  EXPECT_GE(registry.scenarios().size(), 10u);
  for (const char* name :
       {"fig7a_small", "fig7b_mixed", "fig7c_big", "fig8a_few_10comms",
        "fig8b_some_20comms", "fig8c_numerous_40comms", "fig9a_numerous_small",
        "fig9b_some_mixed", "fig9c_few_big", "permutations", "hotspot_storm",
        "multi_app_mix", "trace_replay", "trace_burst", "injection_sweep",
        "injection_ramp", "mesh_scaling", "mesh_scaling_transpose",
        "placement_modes"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  for (const Scenario& scenario : registry.scenarios()) {
    ASSERT_FALSE(scenario.points.empty()) << scenario.name;
    for (const ScenarioPoint& point : scenario.points) {
      const Mesh mesh = point.spec.make_mesh();
      const PowerModel model = point.spec.make_model();
      Rng rng(11);
      const CommSet comms = point.spec.generate(mesh, model, 0.5, rng);
      EXPECT_FALSE(comms.empty()) << scenario.name;
      for (const Communication& comm : comms) {
        EXPECT_TRUE(mesh.contains(comm.src)) << scenario.name;
        EXPECT_TRUE(mesh.contains(comm.snk)) << scenario.name;
        EXPECT_NE(comm.src, comm.snk) << scenario.name;
        EXPECT_GT(comm.weight, 0.0) << scenario.name;
      }
    }
  }
}

TEST(Layers, FlatEnvelopeMatchesTheRawGeneratorBitForBit) {
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  WorkloadLayer layer;
  layer.kind = WorkloadLayer::Kind::kUniform;
  layer.num_comms = 40;
  layer.weight_lo = 100.0;
  layer.weight_hi = 1500.0;
  Rng layer_rng(123);
  const CommSet via_layer = layer.generate(mesh, model, 0.37, layer_rng);
  UniformWorkload raw;
  raw.num_comms = 40;
  raw.weight_lo = 100.0;
  raw.weight_hi = 1500.0;
  Rng raw_rng(123);
  const CommSet via_raw = generate_uniform(mesh, raw, raw_rng);
  EXPECT_EQ(via_layer, via_raw);

  layer.kind = WorkloadLayer::Kind::kFixedLength;
  layer.length = 7;
  Rng length_layer_rng(321);
  const CommSet via_length_layer = layer.generate(mesh, model, 0.37, length_layer_rng);
  Rng length_raw_rng(321);
  EXPECT_EQ(via_length_layer,
            generate_with_length(mesh, 40, 100.0, 1500.0, 7, length_raw_rng));
}

TEST(Layers, EnvelopeScalesWeightsOnly) {
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  WorkloadLayer layer;
  layer.kind = WorkloadLayer::Kind::kUniform;
  layer.num_comms = 25;
  layer.envelope = IntensityEnvelope::constant(2.0);
  Rng scaled_rng(5);
  const CommSet scaled = layer.generate(mesh, model, 0.5, scaled_rng);
  layer.envelope = IntensityEnvelope();
  Rng flat_rng(5);
  const CommSet flat = layer.generate(mesh, model, 0.5, flat_rng);
  ASSERT_EQ(scaled.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(scaled[i].src, flat[i].src);
    EXPECT_EQ(scaled[i].snk, flat[i].snk);
    EXPECT_DOUBLE_EQ(scaled[i].weight, 2.0 * flat[i].weight);
  }
}

TEST(Layers, HotspotStormConvergesOnItsSpots) {
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  WorkloadLayer layer;
  layer.kind = WorkloadLayer::Kind::kHotspots;
  layer.num_hotspots = 3;
  layer.num_comms = 60;
  Rng rng(42);
  const CommSet comms = layer.generate(mesh, model, 0.5, rng);
  ASSERT_EQ(comms.size(), 60u);
  std::vector<Coord> sinks;
  for (const Communication& comm : comms) {
    if (std::find(sinks.begin(), sinks.end(), comm.snk) == sinks.end()) {
      sinks.push_back(comm.snk);
    }
  }
  EXPECT_LE(sinks.size(), 3u);
}

TEST(SuiteRunner, AggregatesAreBitIdenticalAcrossThreadCounts) {
  const Scenario* storm = ScenarioRegistry::builtin().find("hotspot_storm");
  ASSERT_NE(storm, nullptr);
  SuiteOptions single;
  single.instances = 48;
  single.threads = 1;
  SuiteOptions many = single;
  many.threads = 4;
  const ScenarioResult a = SuiteRunner(single).run_all({{storm, 3}}).front();
  const ScenarioResult b = SuiteRunner(many).run_all({{storm, 3}}).front();
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    const exp::PointAggregate& lhs = a.points[p].aggregate;
    const exp::PointAggregate& rhs = b.points[p].aggregate;
    EXPECT_EQ(lhs.instances, rhs.instances);
    for (std::size_t s = 0; s < exp::kNumSeries; ++s) {
      EXPECT_EQ(lhs.failures[s], rhs.failures[s]);
      // EXPECT_EQ on doubles is exact — chunk-ordered merging must make the
      // thread count invisible down to the last bit.
      EXPECT_EQ(lhs.normalized_inverse[s].mean(), rhs.normalized_inverse[s].mean());
      EXPECT_EQ(lhs.normalized_inverse[s].variance(),
                rhs.normalized_inverse[s].variance());
      EXPECT_EQ(lhs.inverse_power[s].mean(), rhs.inverse_power[s].mean());
    }
  }
}

TEST(SuiteRunner, JsonExportNamesTheScenarioAndBothTables) {
  const Scenario* mix = ScenarioRegistry::builtin().find("multi_app_mix");
  ASSERT_NE(mix, nullptr);
  SuiteOptions options;
  options.instances = 4;
  const ScenarioResult result = SuiteRunner(options).run_all({{mix, options.seed}}).front();
  const std::string json = result_to_json(result);
  EXPECT_NE(json.find("\"scenario\": \"multi_app_mix\""), std::string::npos);
  EXPECT_NE(json.find("\"normalized_inverse_power\""), std::string::npos);
  EXPECT_NE(json.find("\"failure_ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"BEST\""), std::string::npos);
  // One row per point, the x column plus one column per series.
  for (const Table& table :
       {normalized_inverse_table(result), failure_ratio_table(result)}) {
    EXPECT_EQ(table.rows(), mix->points.size());
    EXPECT_EQ(table.columns(), 1 + exp::kNumSeries);
  }
}

}  // namespace
}  // namespace scenario
}  // namespace pamr
