// Tests for the distributed suite runner: wire-format round-trips, unit
// enumeration, the shard journal, canonical-order merging, and — through
// the real pamr_dist binary (PAMR_DIST_BIN, injected by CMake) — the
// end-to-end guarantees: 1-thread SuiteRunner == N-thread SuiteRunner ==
// 2-worker pamr_dist bit-for-bit, and interrupt → --resume → identical
// bytes, including with a worker that keeps crashing mid-campaign. The
// bitwise/byte-diff machinery lives in suite_diff.hpp, shared with the
// workload-layer differential tests (test_workloads).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "pamr/dist/coordinator.hpp"
#include "pamr/dist/merger.hpp"
#include "pamr/dist/protocol.hpp"
#include "pamr/dist/shard_log.hpp"
#include "pamr/scenario/suite_runner.hpp"
#include "suite_diff.hpp"

namespace pamr {
namespace dist {
namespace {

using suitetest::expect_aggregate_identical;
using suitetest::fresh_dir;
using suitetest::parse_spec;
using suitetest::read_file;

/// A 4×4 three-point sweep: tiny enough for exhaustive differential runs.
scenario::Scenario tiny_scenario(std::string name = "tiny") {
  scenario::Scenario scenario;
  scenario.name = std::move(name);
  scenario.x_label = "num_comms";
  for (const std::int32_t n : {4, 8, 12}) {
    scenario.points.push_back(
        {static_cast<double>(n),
         parse_spec("mesh=4x4 model=discrete ; kind=uniform n=" + std::to_string(n) +
                    " lo=100 hi=1500")});
  }
  return scenario;
}

exp::PointAggregate sample_aggregate() {
  const scenario::Scenario scenario = tiny_scenario();
  const scenario::ScenarioSpec& spec = scenario.points[2].spec;
  return scenario::run_unit_instances(spec.make_mesh(), spec.make_model(), spec, 0, 9,
                                      9, 42, 2);
}

// -- Aggregate wire form ----------------------------------------------------

TEST(AggregateWire, RoundTripsBitForBit) {
  const exp::PointAggregate aggregate = sample_aggregate();
  const std::string wire = exp::serialize_point_aggregate(aggregate);
  exp::PointAggregate parsed;
  std::string error;
  ASSERT_TRUE(exp::parse_point_aggregate(wire, parsed, error)) << error;
  expect_aggregate_identical(aggregate, parsed);
  // The wire form itself is canonical: serialize(parse(x)) == x.
  EXPECT_EQ(exp::serialize_point_aggregate(parsed), wire);
}

TEST(AggregateWire, RejectsMalformedInput) {
  exp::PointAggregate out;
  std::string error;
  EXPECT_FALSE(exp::parse_point_aggregate("", out, error));
  EXPECT_FALSE(exp::parse_point_aggregate("n=3", out, error));  // no version
  const std::string wire = exp::serialize_point_aggregate(sample_aggregate());
  EXPECT_FALSE(exp::parse_point_aggregate(wire.substr(0, wire.size() / 2), out, error));
  std::string bad_hex = wire;
  bad_hex[bad_hex.find(":") + 1] = 'z';
  EXPECT_FALSE(exp::parse_point_aggregate(bad_hex, out, error));
  EXPECT_FALSE(error.empty());
  // Duplicates are rejected even when the token count still adds up — a
  // second ni0 must not mask a missing ms0.
  EXPECT_FALSE(exp::parse_point_aggregate(wire + " n=5", out, error));
  std::string masked = wire;
  const std::size_t ms0 = masked.find(" ms0=");
  ASSERT_NE(ms0, std::string::npos);
  masked.replace(ms0, 5, " ni0=");
  EXPECT_FALSE(exp::parse_point_aggregate(masked, out, error));
}

// -- Message framing --------------------------------------------------------

TEST(Protocol, WorkUnitSurvivesFramingWithSpecPayload) {
  WorkUnit unit;
  unit.id = 17;
  unit.scenario = "fig7a_small";
  unit.unit = scenario::SuiteUnit{0, 2, 16, 24};
  unit.instances = 300;
  unit.seed = 7;
  unit.spec = "mesh=8x8 model=discrete ; kind=pattern pattern=transpose weight=700 "
              "envelope=ramp:0.2:5";

  const std::string wire = to_wire(unit.to_message());
  // Trickle bytes through the assembler the way a pipe would deliver them.
  MessageAssembler assembler;
  std::vector<Message> messages;
  std::string error;
  for (std::size_t i = 0; i < wire.size(); i += 3) {
    ASSERT_TRUE(assembler.feed(wire.substr(i, 3), messages, error)) << error;
  }
  ASSERT_EQ(messages.size(), 1u);
  WorkUnit parsed;
  ASSERT_TRUE(parse_work_unit(messages[0], parsed, error)) << error;
  parsed.unit.scenario_index = unit.unit.scenario_index;  // not on the wire
  EXPECT_EQ(parsed, unit);
}

TEST(Protocol, ReadMessageAndResultRoundTrip) {
  UnitResult result;
  result.id = 5;
  result.aggregate = exp::serialize_point_aggregate(sample_aggregate());
  result.elapsed_ms = 12.5;
  const std::string wire = to_wire(result.to_message()) + to_wire(make_quit());

  std::FILE* in = fmemopen(const_cast<char*>(wire.data()), wire.size(), "r");
  ASSERT_NE(in, nullptr);
  Message message;
  std::string error;
  ASSERT_TRUE(read_message(in, message, error)) << error;
  UnitResult parsed;
  ASSERT_TRUE(parse_unit_result(message, parsed, error)) << error;
  EXPECT_EQ(parsed.id, result.id);
  EXPECT_EQ(parsed.aggregate, result.aggregate);
  EXPECT_DOUBLE_EQ(parsed.elapsed_ms, result.elapsed_ms);
  ASSERT_TRUE(read_message(in, message, error)) << error;
  EXPECT_EQ(message.type, "quit");
  EXPECT_FALSE(read_message(in, message, error));  // clean EOF
  EXPECT_TRUE(error.empty());
  std::fclose(in);
}

// -- Unit enumeration + options validation ----------------------------------

TEST(WorkList, EnumeratesChunksScenarioMajorInOrder) {
  const scenario::Scenario a = tiny_scenario("a");
  const scenario::Scenario b = tiny_scenario("b");
  const std::vector<scenario::SuiteEntry> entries{{&a, 1}, {&b, 2}};
  const std::vector<scenario::SuiteUnit> units = enumerate_suite_units(entries, 10, 4);
  // 3 chunks per point ([0,4) [4,8) [8,10)), 3 points, 2 scenarios.
  ASSERT_EQ(units.size(), 18u);
  EXPECT_EQ(units[0], (scenario::SuiteUnit{0, 0, 0, 4}));
  EXPECT_EQ(units[2], (scenario::SuiteUnit{0, 0, 8, 10}));
  EXPECT_EQ(units[3], (scenario::SuiteUnit{0, 1, 0, 4}));
  EXPECT_EQ(units[9], (scenario::SuiteUnit{1, 0, 0, 4}));
  EXPECT_EQ(units[17], (scenario::SuiteUnit{1, 2, 8, 10}));
}

TEST(WorkList, SuiteOptionsValidationRejectsBadInputs) {
  scenario::SuiteOptions options;
  options.instances = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  EXPECT_THROW((scenario::SuiteRunner(options)), std::invalid_argument);
  options.instances = -5;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.instances = 10;
  options.chunk = 0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  EXPECT_THROW((scenario::SuiteRunner(options)), std::invalid_argument);
  options.chunk = 8;
  options.threads = 100000;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.threads = 0;
  EXPECT_NO_THROW(options.validate());
}

TEST(Plan, FingerprintPinsEveryDefiningParameter) {
  const scenario::Scenario a = tiny_scenario();
  const auto plan = [&a](std::uint64_t seed, std::int32_t instances, std::size_t chunk) {
    return build_campaign_plan({{&a, seed}}, instances, chunk);
  };
  EXPECT_EQ(plan(1, 10, 4).fingerprint, plan(1, 10, 4).fingerprint);
  EXPECT_NE(plan(1, 10, 4).fingerprint, plan(2, 10, 4).fingerprint);
  EXPECT_NE(plan(1, 10, 4).fingerprint, plan(1, 11, 4).fingerprint);
  EXPECT_NE(plan(1, 10, 4).fingerprint, plan(1, 10, 5).fingerprint);
}

// -- Shard journal ----------------------------------------------------------

TEST(ShardLogTest, RecordsLoadAndRefusesForeignJournals) {
  const std::string dir = fresh_dir("journal");
  const std::string path = dir + "/shards.log";
  const std::string wire = exp::serialize_point_aggregate(sample_aggregate());
  std::string error;
  {
    ShardLog log(path);
    ASSERT_TRUE(log.open_append("aaaa000011112222", error)) << error;
    EXPECT_TRUE(log.record(0, wire));
    EXPECT_TRUE(log.record(3, wire));
  }
  std::map<std::uint64_t, std::string> completed;
  {
    ShardLog log(path);
    ASSERT_TRUE(log.load("aaaa000011112222", completed, error)) << error;
    EXPECT_EQ(completed.size(), 2u);
    EXPECT_EQ(completed.at(0), wire);
    EXPECT_EQ(completed.at(3), wire);
    // Wrong fingerprint: refused, not silently merged.
    EXPECT_FALSE(log.load("bbbb000011112222", completed, error));
    EXPECT_FALSE(error.empty());
  }
  // A crash mid-append can cut the final line anywhere — after the id, or
  // in the middle of the aggregate text. Either way the line is dropped
  // (its unit reruns) instead of wedging --resume.
  for (const std::string& torn : {std::string("done 7"),
                                  "done 7 " + wire.substr(0, wire.size() / 2)}) {
    {
      std::ofstream append(path, std::ios::app);
      append << torn;  // no trailing newline: the write never finished
    }
    {
      ShardLog log(path);
      ASSERT_TRUE(log.load("aaaa000011112222", completed, error)) << error;
      EXPECT_EQ(completed.size(), 2u);
      EXPECT_EQ(completed.count(7), 0u);
    }
    // Remove the torn line again for the next variant.
    std::string contents = read_file(path);
    contents.resize(contents.size() - torn.size());
    std::ofstream(path, std::ios::trunc) << contents;
  }
}

// -- Differential: in-process thread counts × serialized merge --------------

TEST(Differential, MergerReproducesSuiteRunnerBitForBit) {
  const scenario::Scenario a = tiny_scenario("tiny_a");
  const scenario::Scenario b = tiny_scenario("tiny_b");

  scenario::SuiteOptions options;
  options.instances = 10;
  options.chunk = 3;
  options.threads = 1;
  const std::vector<scenario::SuiteEntry> entries{{&a, 11}, {&b, 22}};
  const std::vector<scenario::ScenarioResult> one_thread =
      scenario::SuiteRunner(options).run_all(entries);
  options.threads = 4;
  const std::vector<scenario::ScenarioResult> four_threads =
      scenario::SuiteRunner(options).run_all(entries);

  // Thread-count independence (and a batch == its one-entry batches).
  ASSERT_EQ(one_thread.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    ASSERT_EQ(one_thread[s].points.size(), four_threads[s].points.size());
    for (std::size_t p = 0; p < one_thread[s].points.size(); ++p) {
      expect_aggregate_identical(one_thread[s].points[p].aggregate,
                                 four_threads[s].points[p].aggregate);
    }
  }
  const scenario::ScenarioResult standalone = suitetest::run_scenario(options, b, 22);
  for (std::size_t p = 0; p < standalone.points.size(); ++p) {
    expect_aggregate_identical(one_thread[1].points[p].aggregate,
                               standalone.points[p].aggregate);
  }

  // Worker-equivalent path: every unit executed from its *wire form* (spec
  // re-parsed from text, aggregate serialized and re-parsed), completed in
  // reverse order, merged canonically.
  const CampaignPlan plan = build_campaign_plan(entries, options.instances, 3);
  ResultMerger merger(plan);
  std::string error;
  for (std::size_t u = plan.units.size(); u-- > 0;) {
    const WorkUnit& unit = plan.units[u];
    const scenario::ScenarioSpec spec = parse_spec(unit.spec);
    const exp::PointAggregate aggregate = scenario::run_unit_instances(
        spec.make_mesh(), spec.make_model(), spec, unit.unit.begin, unit.unit.end,
        unit.instances, unit.seed, unit.unit.point_index);
    ASSERT_TRUE(
        merger.add(unit.id, exp::serialize_point_aggregate(aggregate), error))
        << error;
  }
  ASSERT_TRUE(merger.complete());
  const std::vector<scenario::ScenarioResult> merged = merger.merge();
  ASSERT_EQ(merged.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(merged[s].name, one_thread[s].name);
    ASSERT_EQ(merged[s].points.size(), one_thread[s].points.size());
    for (std::size_t p = 0; p < merged[s].points.size(); ++p) {
      EXPECT_EQ(merged[s].points[p].x, one_thread[s].points[p].x);
      expect_aggregate_identical(merged[s].points[p].aggregate,
                                 one_thread[s].points[p].aggregate);
    }
  }
}

// -- End-to-end through the real binary -------------------------------------

#ifdef PAMR_DIST_BIN

constexpr const char* kScenario = "fig7a_small";
constexpr int kTrials = 10;

using suitetest::run_dist;

/// Reference bytes: the in-process SuiteRunner result written through the
/// same reporting code `pamr_scenarios --csv --json` uses.
std::string reference_dir() {
  static const std::string dir = [] {
    const std::string path = fresh_dir("reference");
    const scenario::Scenario& scenario =
        scenario::ScenarioRegistry::builtin().at(kScenario);
    scenario::SuiteOptions options;
    options.instances = kTrials;
    const scenario::ScenarioResult result =
        suitetest::run_scenario(options, scenario, scenario.default_seed);
    EXPECT_TRUE(scenario::write_scenario_outputs(result, path, true, true));
    return path;
  }();
  return dir;
}

void expect_outputs_match_reference(const std::string& dir) {
  suitetest::expect_outputs_match(reference_dir(), dir, kScenario);
}

TEST(EndToEnd, TwoWorkersMatchSingleProcessByteForByte) {
  const std::string dir = fresh_dir("e2e");
  ASSERT_EQ(run_dist("--run " + std::string(kScenario) + " --workers 2 --trials " +
                     std::to_string(kTrials) + " --no-tables --out " + dir),
            0);
  expect_outputs_match_reference(dir);
  EXPECT_TRUE(std::filesystem::exists(dir + "/shards.log"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/stream.csv"));
}

TEST(EndToEnd, InterruptedThenResumedRunMatchesByteForByte) {
  const std::string dir = fresh_dir("resume");
  const std::string base = "--run " + std::string(kScenario) +
                           " --workers 2 --trials " + std::to_string(kTrials) +
                           " --no-tables --out " + dir;
  // Interrupt after 3 units: exit code 3, journal keeps what finished.
  ASSERT_EQ(run_dist(base + " --max-units 3"), 3);
  std::size_t done_lines = 0;
  std::istringstream journal(read_file(dir + "/shards.log"));
  for (std::string line; std::getline(journal, line);) {
    done_lines += line.rfind("done ", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(done_lines, 3u);
  // Without --resume the journal is protected from accidental overwrite.
  EXPECT_NE(run_dist(base), 0);
  // Resume completes the campaign and the merged bytes are identical.
  ASSERT_EQ(run_dist(base + " --resume"), 0);
  expect_outputs_match_reference(dir);
}

TEST(EndToEnd, CrashingWorkersAreRequeuedOntoReplacements) {
  const std::string dir = fresh_dir("crash");
  ASSERT_EQ(setenv("PAMR_DIST_WORKER_FAIL_AFTER", "2", 1), 0);
  const int exit_code =
      run_dist("--run " + std::string(kScenario) + " --workers 2 --trials " +
               std::to_string(kTrials) + " --no-tables --out " + dir);
  ASSERT_EQ(unsetenv("PAMR_DIST_WORKER_FAIL_AFTER"), 0);
  ASSERT_EQ(exit_code, 0);
  expect_outputs_match_reference(dir);
}

TEST(EndToEnd, BothDriversWriteTheSameBytesForALongDecimalSpec) {
  // pamr_dist hands each unit's spec to its workers as text, so a weight
  // bound that "%.10g" would round must survive the trip bit for bit.
  const std::string campaign =
      " --spec 'mesh=8x8 model=discrete ; kind=uniform n=30 lo=100.123456789012 hi=1500'"
      " --trials 16 --seed 1";
  const std::string single_dir = fresh_dir("long_decimal_single");
  const std::string command = "PAMR_OUT_DIR=" + single_dir + " " +
                              std::string(PAMR_SCENARIOS_BIN) + campaign +
                              " --csv --json > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0);
  const std::string dist_dir = fresh_dir("long_decimal_dist");
  ASSERT_EQ(run_dist(campaign + " --workers 2 --no-tables --out " + dist_dir), 0);
  suitetest::expect_outputs_match(single_dir, dist_dir, "adhoc");
}

TEST(EndToEnd, SeedBelowMinusOneIsRejected) {
  // -1 selects each scenario's default seed; anything lower is an input
  // error, not a request for the default, and nothing may run.
  const std::string dir = fresh_dir("bad_seed");
  EXPECT_EQ(run_dist("--run " + std::string(kScenario) + " --seed -2 --trials " +
                     std::to_string(kTrials) + " --no-tables --out " + dir),
            2);
  EXPECT_FALSE(std::filesystem::exists(dir + "/shards.log"));
}

TEST(EndToEnd, BothDriversRejectTheSameSharedOptionErrors) {
  // pamr_scenarios and pamr_dist read --run/--spec/--trials/--seed through
  // one front end, so every violation of its rules exits 2 from both and
  // nothing runs.
  const std::string spec = " --spec 'mesh=4x4 ; kind=uniform n=4 lo=100 hi=200'";
  // pamr_scenarios has no --out; pamr_dist gets a fresh one per case.
  for (const std::string& args : {
           std::string(),                                   // neither --run nor --spec
           "--run " + std::string(kScenario) + spec,        // both
           std::string("--spec 'mesh=4x4 ; kind=waves'"),   // bad --spec
           std::string("--run no_such_suite"),              // unknown suite
           "--run " + std::string(kScenario) + " --trials 0",
           "--run " + std::string(kScenario) + " --seed -2",
       }) {
    const std::string dir = fresh_dir("shared_rules");
    EXPECT_EQ(run_dist(args + " --out " + dir), 2) << "pamr_dist " << args;
    EXPECT_FALSE(std::filesystem::exists(dir + "/shards.log")) << args;
    const std::string command =
        std::string(PAMR_SCENARIOS_BIN) + " " + args + " > /dev/null";
    const int status = std::system(command.c_str());
    EXPECT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 2) << "pamr_scenarios " << args;
  }
}

#endif  // PAMR_DIST_BIN

}  // namespace
}  // namespace dist
}  // namespace pamr
