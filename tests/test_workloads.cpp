// Tests for the workload layers beyond the synthetic generators: trace
// replay (CSV round trips, deterministic subsampling), open-loop injection
// probes (sim aggregates next to power), placement modes, mesh sweeps —
// plus the text-form golden round-trips for every new ScenarioSpec key and
// the registry's near-miss diagnostics. The differential battery at the
// bottom (suite_diff.hpp) pins the determinism guarantee for each new
// workload kind: 1-thread == N-thread == 2-worker pamr_dist ==
// interrupted+resumed, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pamr/exp/instance_runner.hpp"
#include "pamr/scenario/suite_runner.hpp"
#include "pamr/scenario/trace.hpp"
#include "pamr/util/csv.hpp"
#include "suite_diff.hpp"

namespace pamr {
namespace scenario {
namespace {

using suitetest::fresh_dir;
using suitetest::parse_spec;
using suitetest::read_file;

// -- Text-form golden round-trips -------------------------------------------

/// parse → serialize → parse: the first parse must print back to the exact
/// input text, and the reprint must reparse to an equal spec. This is what
/// keeps the dist protocol lossless — WorkUnits ship specs as text.
void expect_text_round_trip(const std::string& text) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::parse(text, spec, error)) << text << ": " << error;
  EXPECT_EQ(spec.to_string(), text);
  ScenarioSpec reparsed;
  ASSERT_TRUE(ScenarioSpec::parse(spec.to_string(), reparsed, error)) << error;
  EXPECT_EQ(reparsed, spec) << text;
}

TEST(WorkloadSpecText, TraceKeysRoundTrip) {
  expect_text_round_trip("mesh=8x8 model=discrete ; kind=trace file=traces/t.csv");
  expect_text_round_trip(
      "mesh=8x8 model=discrete ; kind=trace file=/abs/path/t.csv sample=16");
  expect_text_round_trip(
      "mesh=4x4 model=theory ; kind=trace file=t.csv sample=7 envelope=burst:1:3:0.25");
}

TEST(WorkloadSpecText, InjectionKeysRoundTrip) {
  expect_text_round_trip(
      "mesh=8x8 model=discrete sim=on cycles=4000 warmup=400"
      " ; kind=uniform n=20 lo=100 hi=1500 envelope=ramp:0.2:2");
  // sim=off is the default and must not be printed; a spec that never
  // mentions sim prints without it.
  ScenarioSpec spec = parse_spec("mesh=8x8 model=discrete ; kind=uniform n=5 lo=1 hi=2");
  EXPECT_FALSE(spec.sim);
  EXPECT_EQ(spec.to_string().find("sim="), std::string::npos);
}

TEST(WorkloadSpecText, PlacementAndMeshKeysRoundTrip) {
  expect_text_round_trip(
      "mesh=6x6 model=discrete ; kind=apps apps=pipeline:4:900+stencil:2:2:400"
      " place=optimized");
  // The mesh-sweep axis is the mesh= key itself: one spec per point.
  expect_text_round_trip("mesh=12x12 model=discrete ; kind=uniform n=90 lo=100 hi=1500");
  expect_text_round_trip("mesh=10x4 model=theory ; kind=length n=12 lo=200 hi=800 len=5");
}

TEST(WorkloadSpecText, EveryNewRegistryEntryRoundTrips) {
  for (const char* name : {"trace_replay", "trace_burst", "injection_sweep",
                           "injection_ramp", "mesh_scaling", "mesh_scaling_transpose",
                           "placement_modes"}) {
    const Scenario& scenario = ScenarioRegistry::builtin().at(name);
    for (const ScenarioPoint& point : scenario.points) {
      const std::string text = point.spec.to_string();
      ScenarioSpec reparsed;
      std::string error;
      ASSERT_TRUE(ScenarioSpec::parse(text, reparsed, error)) << name << ": " << error;
      EXPECT_EQ(reparsed, point.spec) << name << ": " << text;
    }
  }
}

TEST(WorkloadSpecText, UnknownKeysStillErrorWithTheKeyName) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ScenarioSpec::parse("mesh=8x8 simulate=on", spec, error));
  EXPECT_NE(error.find("simulate"), std::string::npos) << error;
  EXPECT_FALSE(
      ScenarioSpec::parse("mesh=8x8 ; kind=trace file=t.csv samples=3", spec, error));
  EXPECT_NE(error.find("samples"), std::string::npos) << error;
}

TEST(WorkloadSpecText, RejectsMalformedNewKeys) {
  ScenarioSpec spec;
  std::string error;
  for (const char* bad : {
           "mesh=8x8 sim=maybe",                          // bad sim value
           "mesh=8x8 cycles=100",                         // cycles without sim=on
           "mesh=8x8 warmup=10",                          // warmup without sim=on
           "mesh=8x8 sim=on cycles=100 warmup=100",       // warmup >= cycles
           "mesh=8x8 sim=on cycles=0 warmup=0",           // cycles out of range
           "mesh=8x8 sim=on cycles=abc warmup=1",         // unparsable cycles
           "mesh=8x8 ; kind=trace",                       // trace without file=
           "mesh=8x8 ; kind=trace file=",                 // empty path
           "mesh=8x8 ; kind=trace file=t.csv sample=0",   // sample below 1
           "mesh=8x8 ; kind=trace file=t.csv sample=-3",  // negative sample
           "mesh=8x8 ; kind=apps apps=pipeline:4:900 place=best",  // bad mode
       }) {
    error.clear();
    EXPECT_FALSE(ScenarioSpec::parse(bad, spec, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// -- util/csv reader ---------------------------------------------------------

TEST(CsvReader, ParsesQuotingAndLineEndings) {
  std::vector<std::vector<std::string>> rows;
  std::string error;
  ASSERT_TRUE(parse_csv("a,b\r\n\"x,y\",\"he said \"\"hi\"\"\"\n,last", rows, error))
      << error;
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"x,y", "he said \"hi\""}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"", "last"}));
  ASSERT_TRUE(parse_csv("\"multi\nline\",2\n", rows, error)) << error;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "multi\nline");
  EXPECT_TRUE(parse_csv("", rows, error));
  EXPECT_TRUE(rows.empty());
}

TEST(CsvReader, RejectsStructuralProblemsWithLineNumbers) {
  std::vector<std::vector<std::string>> rows;
  std::string error;
  EXPECT_FALSE(parse_csv("a\n\"unterminated", rows, error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(parse_csv("ab\"c\n", rows, error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_FALSE(parse_csv("\"closed\"x\n", rows, error));
  EXPECT_FALSE(error.empty());
}

// -- Trace CSV round trips ---------------------------------------------------

TEST(TraceCsv, PropertyGeneratedSetsRoundTripExactly) {
  // Weights are deliberately hostile to fixed-precision formatting: a
  // Table-precision "%.4f" dump would destroy most of them. The trace
  // writer must reproduce every bit through its shortest-exact formatter,
  // independent of how many digits that takes.
  Rng rng(0xACE5ULL);
  for (int round = 0; round < 50; ++round) {
    CommSet comms;
    const int n = 1 + static_cast<int>(rng.below(40));
    for (int i = 0; i < n; ++i) {
      Communication comm;
      comm.src = {static_cast<std::int32_t>(rng.below(16)),
                  static_cast<std::int32_t>(rng.below(16))};
      do {
        comm.snk = {static_cast<std::int32_t>(rng.below(16)),
                    static_cast<std::int32_t>(rng.below(16))};
      } while (comm.snk == comm.src);
      // Mix round decimals with full-entropy doubles and extreme scales.
      switch (rng.below(4)) {
        case 0: comm.weight = 100.0 * (1.0 + static_cast<double>(rng.below(30))); break;
        case 1: comm.weight = rng.uniform(1e-3, 1.0); break;
        case 2: comm.weight = rng.uniform(0.1, 3500.0); break;
        default: comm.weight = rng.uniform(0.0, 1.0) * 1e12 + 1e-9; break;
      }
      comms.push_back(comm);
    }
    const std::string csv = trace_to_csv(comms);
    CommSet reloaded;
    std::string error;
    ASSERT_TRUE(parse_trace_csv(csv, reloaded, error)) << error;
    ASSERT_EQ(reloaded.size(), comms.size());
    for (std::size_t i = 0; i < comms.size(); ++i) {
      EXPECT_EQ(reloaded[i].src, comms[i].src);
      EXPECT_EQ(reloaded[i].snk, comms[i].snk);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reloaded[i].weight),
                std::bit_cast<std::uint64_t>(comms[i].weight))
          << "weight " << comms[i].weight << " did not round-trip";
    }
    // The text form is canonical: dumping the reload reproduces the bytes.
    EXPECT_EQ(trace_to_csv(reloaded), csv);
  }
}

TEST(TraceCsv, FileRoundTripAndDiagnostics) {
  const std::string dir = fresh_dir("trace_io");
  const std::string path = dir + "/t.csv";
  CommSet comms{{{0, 1}, {2, 3}, 123.456}, {{3, 0}, {1, 2}, 0.125}};
  ASSERT_TRUE(write_trace_csv(comms, path));
  CommSet reloaded;
  std::string error;
  ASSERT_TRUE(read_trace_csv(path, reloaded, error)) << error;
  EXPECT_EQ(reloaded, comms);

  for (const char* bad : {
           "",                                              // empty
           "src_u,src_v,snk_u,snk_v\n0,0,1,1\n",            // wrong header
           "src_u,src_v,snk_u,snk_v,weight\n",              // no rows
           "src_u,src_v,snk_u,snk_v,weight\n0,0,1\n",       // short row
           "src_u,src_v,snk_u,snk_v,weight\n0,0,1,1,nan\n", // bad weight
           "src_u,src_v,snk_u,snk_v,weight\n0,0,1,1,-5\n",  // negative weight
           "src_u,src_v,snk_u,snk_v,weight\n0,0,0,0,10\n",  // src == snk
           "src_u,src_v,snk_u,snk_v,weight\n-1,0,1,1,10\n", // negative coord
       }) {
    CommSet out;
    error.clear();
    EXPECT_FALSE(parse_trace_csv(bad, out, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }

  EXPECT_THROW((void)load_trace(dir + "/missing.csv"), std::runtime_error);
}

// -- Trace replay layer ------------------------------------------------------

std::string write_temp_trace(const CommSet& comms, const std::string& tag) {
  const std::string path = fresh_dir("trace_" + tag) + "/trace.csv";
  EXPECT_TRUE(write_trace_csv(comms, path));
  return path;
}

CommSet square_trace(std::int32_t p, int flows) {
  CommSet comms;
  Rng rng(99);
  for (int i = 0; i < flows; ++i) {
    Communication comm;
    comm.src = {static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(p))),
                static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(p)))};
    do {
      comm.snk = {static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(p))),
                  static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(p)))};
    } while (comm.snk == comm.src);
    comm.weight = 50.0 * (1.0 + static_cast<double>(rng.below(20)));
    comms.push_back(comm);
  }
  return comms;
}

TEST(TraceReplay, FullReplayReproducesTheFileInOrder) {
  const CommSet trace = square_trace(4, 12);
  const std::string path = write_temp_trace(trace, "full");
  const ScenarioSpec spec =
      parse_spec("mesh=4x4 model=discrete ; kind=trace file=" + path);
  Rng rng(1);
  EXPECT_EQ(spec.generate(spec.make_mesh(), spec.make_model(), 0.5, rng), trace);
}

TEST(TraceReplay, SubsamplePreservesTraceOrderAndIsDeterministic) {
  const CommSet trace = square_trace(4, 20);
  const std::string path = write_temp_trace(trace, "sub");
  const ScenarioSpec spec =
      parse_spec("mesh=4x4 model=discrete ; kind=trace file=" + path + " sample=7");
  const Mesh mesh = spec.make_mesh();
  const PowerModel model = spec.make_model();
  Rng rng_a(42);
  const CommSet a = spec.generate(mesh, model, 0.5, rng_a);
  Rng rng_b(42);
  const CommSet b = spec.generate(mesh, model, 0.5, rng_b);
  EXPECT_EQ(a, b);  // same instance stream, same subset
  ASSERT_EQ(a.size(), 7u);
  // Every sampled communication appears in the trace, in trace order.
  std::size_t cursor = 0;
  for (const Communication& comm : a) {
    while (cursor < trace.size() && !(trace[cursor] == comm)) ++cursor;
    ASSERT_LT(cursor, trace.size()) << "sample not a trace subsequence";
    ++cursor;
  }
  // A different instance stream draws a different subset (with 20C7 ≫ 1
  // subsets, a collision would be a determinism bug, not luck).
  Rng rng_c(43);
  EXPECT_NE(spec.generate(mesh, model, 0.5, rng_c), a);
  // sample >= trace size replays everything.
  const ScenarioSpec all = parse_spec("mesh=4x4 model=discrete ; kind=trace file=" +
                                      path + " sample=500");
  Rng rng_d(7);
  EXPECT_EQ(all.generate(mesh, model, 0.5, rng_d), trace);
}

TEST(TraceReplay, EnvelopeScalesReplayedWeights) {
  const CommSet trace = square_trace(4, 6);
  const std::string path = write_temp_trace(trace, "env");
  const ScenarioSpec spec = parse_spec("mesh=4x4 model=discrete ; kind=trace file=" +
                                       path + " envelope=const:2");
  Rng rng(1);
  const CommSet scaled = spec.generate(spec.make_mesh(), spec.make_model(), 0.5, rng);
  ASSERT_EQ(scaled.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(scaled[i].weight, 2.0 * trace[i].weight);
  }
}

TEST(TraceReplay, EndpointOutsideTheMeshFailsLoudly) {
  const CommSet trace = square_trace(8, 10);  // 8x8 endpoints
  const std::string path = write_temp_trace(trace, "bounds");
  const ScenarioSpec spec =
      parse_spec("mesh=2x2 model=discrete ; kind=trace file=" + path);
  Rng rng(1);
  // Oversized core ids are bad input, not a logic error — rejected with a
  // runtime_error naming the offending CSV row (header = row 1).
  try {
    (void)spec.generate(spec.make_mesh(), spec.make_model(), 0.5, rng);
    FAIL() << "oversized trace endpoints must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(" row "), std::string::npos) << what;
    EXPECT_NE(what.find("2x2 mesh"), std::string::npos) << what;
    // The named row must be a real data row of the file (2..n+1).
    std::int32_t max_u = 0;
    std::size_t max_row = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const std::int32_t u = std::max(trace[i].src.u, trace[i].snk.u);
      if (u > max_u) {
        max_u = u;
        max_row = i + 2;
      }
    }
    EXPECT_NE(what.find("row " + std::to_string(max_row)), std::string::npos) << what;
  }
}

// -- Open-loop injection probe ----------------------------------------------

TEST(InjectionProbe, SimStatsAggregateNextToPower) {
  const ScenarioSpec spec = parse_spec(
      "mesh=4x4 model=discrete sim=on cycles=600 warmup=100"
      " ; kind=uniform n=6 lo=100 hi=900");
  const Mesh mesh = spec.make_mesh();
  const PowerModel model = spec.make_model();
  const exp::PointAggregate aggregate =
      run_unit_instances(mesh, model, spec, 0, 8, 8, 21, 0);
  EXPECT_EQ(aggregate.instances, 8u);
  // A U[100,900) 6-flow load on 4x4 is comfortably feasible: every
  // instance must have been probed, delivering ~all offered traffic.
  EXPECT_EQ(aggregate.sim_delivery.count(), 8u);
  EXPECT_GT(aggregate.sim_delivery.mean(), 0.9);
  // Delivery can top 1 slightly: packets generated during warmup drain into
  // the measured window, while `offered` counts post-warmup only.
  EXPECT_LE(aggregate.sim_delivery.max(), 1.1);
  EXPECT_GT(aggregate.sim_latency.mean(), 0.0);
  EXPECT_GT(aggregate.sim_throughput.mean(), 0.0);

  // The wire form carries the sim stats bit-exactly (aggv=2).
  const std::string wire = exp::serialize_point_aggregate(aggregate);
  exp::PointAggregate parsed;
  std::string error;
  ASSERT_TRUE(exp::parse_point_aggregate(wire, parsed, error)) << error;
  suitetest::expect_aggregate_identical(aggregate, parsed);
  EXPECT_EQ(exp::serialize_point_aggregate(parsed), wire);
}

TEST(InjectionProbe, DisabledSpecKeepsSimStatsEmpty) {
  const ScenarioSpec spec =
      parse_spec("mesh=4x4 model=discrete ; kind=uniform n=6 lo=100 hi=900");
  const exp::PointAggregate aggregate =
      run_unit_instances(spec.make_mesh(), spec.make_model(), spec, 0, 4, 4, 21, 0);
  EXPECT_EQ(aggregate.sim_delivery.count(), 0u);
  EXPECT_EQ(aggregate.sim_latency.count(), 0u);
}

TEST(InjectionProbe, SimTableAndJsonAppearOnlyWithSimStats) {
  Scenario probe = suitetest::adhoc_scenario(
      "mesh=4x4 model=discrete sim=on cycles=600 warmup=100"
      " ; kind=uniform n=6 lo=100 hi=900");
  SuiteOptions options;
  options.instances = 6;
  const ScenarioResult with_sim = suitetest::run_scenario(options, probe, options.seed);
  EXPECT_TRUE(has_sim_stats(with_sim));
  EXPECT_NE(result_to_json(with_sim).find("\"sim\""), std::string::npos);
  EXPECT_EQ(sim_table(with_sim).rows(), 1u);

  Scenario plain =
      suitetest::adhoc_scenario("mesh=4x4 model=discrete ; kind=uniform n=6 lo=100 hi=900");
  const ScenarioResult without = suitetest::run_scenario(options, plain, options.seed);
  EXPECT_FALSE(has_sim_stats(without));
  EXPECT_EQ(result_to_json(without).find("\"sim\""), std::string::npos);
}

// -- Placement modes ---------------------------------------------------------

TEST(PlacementModes, OptimizedPlacementIsDeterministicAndFits) {
  const ScenarioSpec spec = parse_spec(
      "mesh=4x4 model=discrete ; kind=apps apps=pipeline:3:600+forkjoin:2:300"
      " place=optimized");
  const Mesh mesh = spec.make_mesh();
  const PowerModel model = spec.make_model();
  Rng rng_a(5);
  const CommSet a = spec.generate(mesh, model, 0.5, rng_a);
  Rng rng_b(5);
  EXPECT_EQ(spec.generate(mesh, model, 0.5, rng_b), a);
  EXPECT_FALSE(a.empty());
  for (const Communication& comm : a) {
    EXPECT_TRUE(mesh.contains(comm.src));
    EXPECT_TRUE(mesh.contains(comm.snk));
    EXPECT_NE(comm.src, comm.snk);
  }
}

// -- Registry near-miss diagnostics -----------------------------------------

TEST(RegistryLookup, UnknownNameSuggestsNearMissesAndListsTheCatalogue) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const std::string message = registry.unknown_name_message("fig7a_smal");
  EXPECT_NE(message.find("unknown scenario 'fig7a_smal'"), std::string::npos) << message;
  EXPECT_NE(message.find("did you mean"), std::string::npos) << message;
  EXPECT_NE(message.find("'fig7a_small'"), std::string::npos) << message;
  // The full catalogue rides along, so the user never needs a second try.
  for (const Scenario& scenario : registry.scenarios()) {
    EXPECT_NE(message.find(scenario.name), std::string::npos) << scenario.name;
  }
  // A hopeless name still lists the catalogue, without fake suggestions.
  const std::string hopeless = registry.unknown_name_message("zzzzzzzzzzzzzzzz");
  EXPECT_EQ(hopeless.find("did you mean"), std::string::npos) << hopeless;
  EXPECT_NE(hopeless.find("available:"), std::string::npos);

  // resolve_suite_entries surfaces the same diagnostic.
  std::vector<SuiteEntry> entries;
  std::string error;
  EXPECT_FALSE(resolve_suite_entries(registry, "trace_repla", -1, entries, error));
  EXPECT_NE(error.find("'trace_replay'"), std::string::npos) << error;
}

// -- Instance memo -----------------------------------------------------------
//
// run_unit_instances routes each distinct communication set of a unit once
// and folds a repeat from its twin's sample. Folding exp::run_instance over
// every instance must give the same aggregate, bit for bit, except for the
// wall-clock runtimes (whose counts still say which instances were routed).

exp::PointAggregate route_every_instance(const ScenarioSpec& spec, std::size_t begin,
                                         std::size_t end, std::size_t instances,
                                         std::uint64_t seed, std::uint64_t point_id) {
  const Mesh mesh = spec.make_mesh();
  const PowerModel model = spec.make_model();
  std::unique_ptr<const topo::Topology> topology;
  if (spec.topo != topo::TopoKind::kRect) {
    topology = topo::make_topology(spec.topo, spec.mesh_p, spec.mesh_q);
  }
  exp::PointAggregate aggregate;
  for (std::size_t instance = begin; instance < end; ++instance) {
    Rng rng(derive_seed(seed, point_id, instance));
    const double t =
        (static_cast<double>(instance) + 0.5) / static_cast<double>(instances);
    const CommSet comms = spec.generate(mesh, model, t, rng);
    aggregate.add(topology != nullptr ? exp::run_instance(*topology, comms, model)
                                      : exp::run_instance(mesh, comms, model));
  }
  return aggregate;
}

void expect_memo_matches_routing_every_instance(const ScenarioSpec& spec,
                                                std::uint64_t seed,
                                                std::uint64_t point_id) {
  constexpr std::size_t kInstances = 16;
  constexpr std::size_t kChunk = 8;
  const Mesh mesh = spec.make_mesh();
  const PowerModel model = spec.make_model();
  for (std::size_t begin = 0; begin < kInstances; begin += kChunk) {
    SCOPED_TRACE(spec.to_string() + " instances " + std::to_string(begin) + "..");
    const exp::PointAggregate memo = run_unit_instances(
        mesh, model, spec, begin, begin + kChunk, kInstances, seed, point_id);
    const exp::PointAggregate every =
        route_every_instance(spec, begin, begin + kChunk, kInstances, seed, point_id);
    suitetest::expect_aggregate_identical(memo, every);
    for (std::size_t s = 0; s < exp::kNumSeries; ++s) {
      EXPECT_EQ(memo.elapsed_ms[s].count(), every.elapsed_ms[s].count());
    }
    EXPECT_EQ(memo.certified(), every.certified());
  }
}

void expect_registry_point_memo(const std::string& name, std::size_t point) {
  const Scenario& scenario = ScenarioRegistry::builtin().at(name);
  ASSERT_LT(point, scenario.points.size()) << name;
  expect_memo_matches_routing_every_instance(scenario.points[point].spec,
                                             scenario.default_seed, point);
}

TEST(InstanceMemo, RepeatedSetsFoldTheSampleOfRoutingEveryInstance) {
  ASSERT_EQ(setenv("PAMR_TRACE_DIR", PAMR_REPO_DIR, /*overwrite=*/1), 0);
  for (std::size_t pattern = 0; pattern < 6; ++pattern) {
    expect_registry_point_memo("permutations", pattern);
  }
  expect_registry_point_memo("trace_burst", 0);
  expect_registry_point_memo("multi_app_mix", 0);  // contiguous placement
  expect_registry_point_memo("topology_compare", 4);  // torus
}

TEST(InstanceMemo, TorusPermutationFoldsThroughTheTopologyPath) {
  // The registry's torus points draw random sets; a permutation repeats.
  expect_memo_matches_routing_every_instance(
      parse_spec("mesh=8x8 model=discrete topo=torus ; kind=pattern pattern=transpose"
                 " weight=700"),
      11, 0);
}

// -- Differential determinism: every new workload kind -----------------------
//
// Each case runs the full battery from suite_diff.hpp. Trials/chunk are
// sized so every campaign has >= 2 units (the interruption leg needs a
// unit left to resume).

#ifdef PAMR_DIST_BIN

void expect_spec_differential(const std::string& spec_text, std::int32_t trials,
                              std::size_t chunk, const std::string& tag) {
  const Scenario adhoc = suitetest::adhoc_scenario(spec_text);
  suitetest::expect_suite_differential(adhoc, "--spec '" + spec_text + "'", trials,
                                       chunk, tag);
}

TEST(WorkloadDifferential, TraceReplay) {
  const std::string path = write_temp_trace(square_trace(4, 16), "diff");
  expect_spec_differential(
      "mesh=4x4 model=discrete ; kind=trace file=" + path + " sample=6", 12, 4,
      "trace");
}

TEST(WorkloadDifferential, OpenLoopInjection) {
  expect_spec_differential(
      "mesh=4x4 model=discrete sim=on cycles=600 warmup=100"
      " ; kind=uniform n=6 lo=100 hi=1200 envelope=ramp:0.5:1.5",
      12, 4, "injection");
}

TEST(WorkloadDifferential, OptimizedPlacement) {
  expect_spec_differential(
      "mesh=4x4 model=discrete ; kind=apps apps=pipeline:3:600+forkjoin:2:300"
      " place=optimized",
      8, 4, "placement");
}

TEST(WorkloadDifferential, MeshSweep) {
  // A miniature mesh-axis sweep (the registry's mesh_scaling shape): the
  // x axis scales p×q, so every point runs on a different mesh.
  Scenario sweep;
  sweep.name = "adhoc";  // reuse the adhoc output naming
  for (const std::int32_t p : {3, 4, 5}) {
    sweep.points.push_back(
        {static_cast<double>(p),
         parse_spec("mesh=" + std::to_string(p) + "x" + std::to_string(p) +
                    " model=discrete ; kind=uniform n=" + std::to_string(p * p) +
                    " lo=100 hi=1500")});
  }
  // No single --spec covers a multi-point sweep; drive pamr_dist with the
  // equivalent registry entry instead once per point is not possible — so
  // this case pins the in-process half only and the registry mesh_scaling
  // entry covers the distributed half in CI's workload smoke.
  (void)suitetest::expect_thread_count_invariant(sweep, 10, 4);
}

TEST(WorkloadDifferential, RegistryTraceReplayThroughDist) {
  // The committed trace suite end-to-end by registry name, like CI runs it.
  ASSERT_EQ(setenv("PAMR_TRACE_DIR", PAMR_REPO_DIR, /*overwrite=*/1), 0);
  const Scenario& scenario = ScenarioRegistry::builtin().at("trace_replay");
  suitetest::expect_suite_differential(scenario, "--run trace_replay", 6, 4,
                                       "trace_registry");
}

#endif  // PAMR_DIST_BIN

}  // namespace
}  // namespace scenario
}  // namespace pamr
