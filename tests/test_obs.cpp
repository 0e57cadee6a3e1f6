// Telemetry subsystem tests: the observability PR's determinism contract.
//
//   * Unit-scoped counters are pinned to exact values and bit-identical
//     across thread counts and across the dist driver (the counter deltas
//     travel the wire as a side channel and merge into the coordinator's
//     registry). The simulator's router-cycle count shows idle routers
//     being skipped.
//   * Result bytes are identical with telemetry off, on, traced, and
//     through an interrupted-then-resumed campaign — telemetry observes,
//     never perturbs.
//   * The Chrome trace-event JSON is structurally valid: every B has a
//     matching E in its (pid, tid) lane, spans nest, process lanes are
//     labeled, and the route phases show up under unit spans.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pamr/dist/coordinator.hpp"
#include "pamr/dist/protocol.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/routing/path.hpp"
#include "pamr/routing/routing.hpp"
#include "pamr/scenario/suite_runner.hpp"
#include "pamr/sim/simulator.hpp"
#include "suite_diff.hpp"

namespace pamr {
namespace obs {
namespace {

using suitetest::fresh_dir;
using suitetest::read_file;

constexpr const char* kScenarioName = "fig7a_small";
constexpr std::int32_t kTrials = 6;
constexpr std::size_t kChunk = 4;
// Instances of the test campaign (fig7a_small, kTrials per point, default
// seed) that exp::run_instance certifies infeasible and does not route.
constexpr std::uint64_t kCertified = 25;
// At the paranoid check level, run_instance still routes each certified
// instance to cross-check the certificate, so the router counters see it.
constexpr std::uint64_t kCrossChecked = PAMR_CHECK_LEVEL >= 2 ? kCertified : 0;
// Route calls of the test campaign that stop at a certain overload
// (RouteGoal::kVerdict), in all and of PR alone. At the paranoid check
// level, run_instance routes each of them again to completion to
// cross-check the stop, and the router counters see that too.
constexpr std::uint64_t kStopped = 130;
constexpr std::uint64_t kStoppedPr = 5;
constexpr std::uint64_t kReRouted = PAMR_CHECK_LEVEL >= 2 ? kStopped : 0;
constexpr std::uint64_t kReRoutedPr = PAMR_CHECK_LEVEL >= 2 ? kStoppedPr : 0;

const scenario::Scenario& test_scenario() {
  return scenario::ScenarioRegistry::builtin().at(kScenarioName);
}

// -- Static layout ------------------------------------------------------------

TEST(ObsLayout, CellOffsetsArePinnedAndExhaustive) {
  static_assert(cells_for(Kind::kCounter) == 1);
  static_assert(cells_for(Kind::kTimer) == 2);
  static_assert(cells_for(Kind::kHistogram) == kHistBuckets + 2);
  static_assert(cell_offset(Metric::kRouteCalls) == 0);
  static_assert(kTotalCells > kNumMetrics);

  // Offsets are strictly increasing and each cell maps back to its metric.
  std::size_t expected = 0;
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    const Metric m = static_cast<Metric>(i);
    EXPECT_EQ(cell_offset(m), expected) << info(m).name;
    for (std::size_t c = 0; c < cells_for(info(m).kind); ++c) {
      EXPECT_EQ(cell_metric(expected + c), m) << info(m).name;
      EXPECT_EQ(unit_scoped_cell(expected + c),
                info(m).scope == Scope::kUnit || info(m).scope == Scope::kImpl)
          << info(m).name;
    }
    expected += cells_for(info(m).kind);
  }
  EXPECT_EQ(expected, kTotalCells);
}

TEST(ObsLayout, RoutePhaseMapsEveryBaseRouterName) {
  EXPECT_EQ(route_phase("XY"), Metric::kPhaseRouteXy);
  EXPECT_EQ(route_phase("SG"), Metric::kPhaseRouteSg);
  EXPECT_EQ(route_phase("IG"), Metric::kPhaseRouteIg);
  EXPECT_EQ(route_phase("TB"), Metric::kPhaseRouteTb);
  EXPECT_EQ(route_phase("XYI"), Metric::kPhaseRouteXyi);
  EXPECT_EQ(route_phase("PR"), Metric::kPhaseRoutePr);
  EXPECT_EQ(route_phase("BEST"), Metric::kPhaseRouteBest);
  EXPECT_EQ(route_phase("X"), Metric::kPhaseRouteOther);
  EXPECT_EQ(route_phase("XYZ"), Metric::kPhaseRouteOther);
  EXPECT_EQ(route_phase(""), Metric::kPhaseRouteOther);
}

// -- Fixture ------------------------------------------------------------------

class ObsTest : public testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset();
    clear_trace();
  }

  void TearDown() override {
    set_enabled(false);
    set_trace_enabled(false);
    reset();
    clear_trace();
    // run_campaign exports the gates to worker children through the
    // environment; scrub so later tests (and later suites in this binary)
    // start from a clean slate.
    unsetenv("PAMR_OBS");
    unsetenv("PAMR_OBS_TRACE");
  }
};

// -- Counters -----------------------------------------------------------------

obs::Snapshot run_suite_and_snapshot(std::size_t threads) {
  scenario::SuiteOptions options;
  options.instances = kTrials;
  options.chunk = kChunk;
  options.seed = test_scenario().default_seed;
  options.threads = threads;
  reset();
  (void)scenario::SuiteRunner(options).run(test_scenario());
  return snapshot();
}

TEST_F(ObsTest, UnitCountersArePinnedToExactValues) {
  const Snapshot snap = run_suite_and_snapshot(1);
  const std::uint64_t points = test_scenario().points.size();
  const std::uint64_t instances = points * static_cast<std::uint64_t>(kTrials);
  const std::uint64_t units_per_point = (kTrials + kChunk - 1) / kChunk;

  EXPECT_EQ(snap.counter(Metric::kSuiteInstances), instances);
  EXPECT_EQ(snap.counter(Metric::kSuiteUnits), points * units_per_point);
  // exp::run_instance routes each instance through the six base routers,
  // except those the infeasibility certificate rejects up front.
  EXPECT_EQ(snap.counter(Metric::kRouteCertifiedInfeasible), kCertified);
  const std::uint64_t routed = instances - kCertified + kCrossChecked;
  EXPECT_EQ(snap.counter(Metric::kRouteCalls), 6 * routed + kReRouted);
  EXPECT_EQ(snap.counter(Metric::kRouteStoppedEarly), kStopped);
  EXPECT_EQ(snap.timer_calls(Metric::kPhaseCertificate), instances);
  EXPECT_EQ(snap.counter(Metric::kSimProbes), 0u) << "fig7a_small is not a sim scenario";
  EXPECT_GT(snap.counter(Metric::kIgCutBounds), 0u);

  // One histogram sample per XYI / PR route call; sums tie to the counters.
  EXPECT_EQ(snap.hist_count(Metric::kXyiMovesPerCall), routed);
  EXPECT_EQ(snap.hist_sum(Metric::kXyiMovesPerCall), snap.counter(Metric::kXyiMoves));
  // A stopped PR call samples the removals it made.
  EXPECT_EQ(snap.hist_count(Metric::kPrRemovalsPerCall), routed + kReRoutedPr);
  EXPECT_EQ(snap.hist_sum(Metric::kPrRemovalsPerCall), snap.counter(Metric::kPrRemovals));

  // The timer side is wall clock, but the call counts are deterministic.
  EXPECT_EQ(snap.timer_calls(Metric::kPhaseUnit), points * units_per_point);
  EXPECT_EQ(snap.timer_calls(Metric::kPhaseSuite), 1u);
}

TEST_F(ObsTest, UnitCellsAreBitIdenticalAcrossThreadCounts) {
  const Snapshot one = run_suite_and_snapshot(1);
  const Snapshot four = run_suite_and_snapshot(4);
  for (std::size_t c = 0; c < kTotalCells; ++c) {
    if (!unit_scoped_cell(c)) continue;
    EXPECT_EQ(one.cells[c], four.cells[c])
        << "cell " << c << " of " << info(cell_metric(c)).name
        << " differs between 1 and 4 threads";
  }
}

TEST_F(ObsTest, SimCountersAreDeterministicAndShowSkippedRouters) {
  // injection_sweep probes every instance's BEST routing with sim=on.
  const scenario::Scenario& sweep =
      scenario::ScenarioRegistry::builtin().at("injection_sweep");
  const auto run = [&](std::size_t threads) {
    scenario::SuiteOptions options;
    options.instances = 2;
    options.chunk = 1;
    options.seed = sweep.default_seed;
    options.threads = threads;
    reset();
    (void)scenario::SuiteRunner(options).run(sweep);
    return snapshot();
  };
  const Snapshot one = run(1);
  const Snapshot three = run(3);
  EXPECT_GT(one.counter(Metric::kSimProbes), 0u);
  EXPECT_GT(one.counter(Metric::kSimRouterCycles), 0u);
  EXPECT_GT(one.counter(Metric::kSimFlitHops), 0u);
  EXPECT_EQ(one.counter(Metric::kSimRouterCycles), three.counter(Metric::kSimRouterCycles));
  EXPECT_EQ(one.counter(Metric::kSimFlitHops), three.counter(Metric::kSimFlitHops));

  // One 2-hop flow on 8x8: only its source, middle and sink ever have work.
  const Mesh mesh(8, 8);
  const CommSet comms{{{0, 0}, {0, 2}, 1000.0}};
  const Routing routing = make_single_path_routing(comms, {xy_path(mesh, {0, 0}, {0, 2})});
  sim::SimConfig config;
  config.cycles = 4000;
  config.warmup = 0;  // measure every cycle, so the flit counts bound the hops
  reset();
  const sim::SimStats stats = sim::simulate(mesh, comms, routing, config);
  const Snapshot snap = snapshot();
  const auto cycles = static_cast<std::uint64_t>(config.cycles);
  EXPECT_GT(snap.counter(Metric::kSimRouterCycles), 0u);
  EXPECT_LE(snap.counter(Metric::kSimRouterCycles), 3 * cycles);
  EXPECT_LT(snap.counter(Metric::kSimRouterCycles), cycles * 64 / 10);
  const auto delivered = static_cast<std::uint64_t>(stats.per_subflow[0].delivered_flits);
  const auto injected = static_cast<std::uint64_t>(stats.per_subflow[0].injected_flits);
  EXPECT_GE(snap.counter(Metric::kSimFlitHops), 2 * delivered);
  EXPECT_LE(snap.counter(Metric::kSimFlitHops), 2 * injected);
}

TEST_F(ObsTest, DisabledRegistryRecordsNothing) {
  set_enabled(false);
  reset();
  (void)run_suite_and_snapshot(1);  // reset+run with recording off
  const Snapshot snap = snapshot();
  for (std::size_t c = 0; c < kTotalCells; ++c) {
    EXPECT_EQ(snap.cells[c], 0u) << info(cell_metric(c)).name;
  }
}

// -- Wire codecs --------------------------------------------------------------

TEST_F(ObsTest, CellDeltaCodecRoundTrips) {
  Snapshot before;
  Snapshot after;
  after.cells[0] = 7;
  after.cells[5] = 1;
  after.cells[kTotalCells - 1] = 42;

  const std::string text = encode_cell_deltas(before, after);
  EXPECT_EQ(text, std::to_string(kTotalCells) + ";0:7,5:1," +
                      std::to_string(kTotalCells - 1) + ":42");
  EXPECT_TRUE(encode_cell_deltas(after, after).empty());

  reset();
  std::string error;
  ASSERT_TRUE(merge_cell_deltas(text, error)) << error;
  const Snapshot merged = snapshot();
  EXPECT_EQ(merged.cells[0], 7u);
  EXPECT_EQ(merged.cells[5], 1u);
  EXPECT_EQ(merged.cells[kTotalCells - 1], 42u);

  EXPECT_TRUE(merge_cell_deltas("", error));  // no deltas is fine
}

TEST_F(ObsTest, CellDeltaMergeRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(merge_cell_deltas("no-header", error));
  EXPECT_FALSE(merge_cell_deltas("7;0:1", error))
      << "a different cell count means a different metric table";
  EXPECT_FALSE(merge_cell_deltas(std::to_string(kTotalCells) + ";999999:1", error));
  EXPECT_FALSE(merge_cell_deltas(std::to_string(kTotalCells) + ";0:x", error));
  EXPECT_FALSE(merge_cell_deltas(std::to_string(kTotalCells) + ";0", error));
}

TEST_F(ObsTest, SpanCodecRoundTripsEscapedFields) {
  TraceSpan span;
  span.name = std::string("unit weird\\name\nwith\x1f sep");
  span.args_json = "{\"x\":1}";
  span.tid = 3;
  span.start_ns = 10;
  span.end_ns = 20;

  TraceSpan decoded;
  ASSERT_TRUE(decode_span(encode_span(span), decoded));
  EXPECT_EQ(decoded.name, span.name);
  EXPECT_EQ(decoded.args_json, span.args_json);
  EXPECT_EQ(decoded.tid, span.tid);
  EXPECT_EQ(decoded.start_ns, span.start_ns);
  EXPECT_EQ(decoded.end_ns, span.end_ns);

  EXPECT_FALSE(decode_span("", decoded));
  EXPECT_FALSE(decode_span("a\x1f b", decoded));
  EXPECT_FALSE(decode_span("a\x1f{}\x1f" "0\x1f" "9\x1f" "5", decoded))
      << "end before start must be rejected";
}

// -- Trace validation ---------------------------------------------------------

bool find_string_field(const std::string& line, const std::string& key,
                       std::string& out) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  out = line.substr(begin, end - begin);
  return true;
}

bool find_uint_field(const std::string& line, const std::string& key,
                     std::uint64_t& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t i = at + needle.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return false;
  out = 0;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    out = out * 10 + static_cast<std::uint64_t>(line[i] - '0');
  }
  return true;
}

struct TraceCheck {
  std::set<std::string> span_names;
  std::set<std::string> process_names;
  std::size_t begin_events = 0;
};

/// Line-parses a trace file and enforces the structural contract: one event
/// per line, every B matched by an E with the same name in its (pid, tid)
/// lane, lanes empty at EOF, every pid labeled by a process_name record.
TraceCheck validate_trace_file(const std::string& path) {
  TraceCheck check;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::string>> stacks;
  std::set<std::uint64_t> span_pids;
  std::set<std::uint64_t> labeled_pids;

  std::istringstream in(read_file(path));
  std::string line;
  EXPECT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  while (std::getline(in, line)) {
    if (line == "]}") break;
    if (!line.empty() && line.back() == ',') line.pop_back();
    std::string ph;
    std::string name;
    std::uint64_t pid = 0;
    std::uint64_t tid = 0;
    if (!find_string_field(line, "ph", ph) || !find_string_field(line, "name", name) ||
        !find_uint_field(line, "pid", pid) || !find_uint_field(line, "tid", tid)) {
      ADD_FAILURE() << "unparseable trace event: " << line;
      continue;
    }
    if (ph == "M") {
      EXPECT_EQ(name, "process_name") << line;
      std::size_t at = line.find("\"args\":{\"name\":\"");
      if (at == std::string::npos) {
        ADD_FAILURE() << "metadata record without a label: " << line;
        continue;
      }
      at += std::string("\"args\":{\"name\":\"").size();
      check.process_names.insert(line.substr(at, line.find('"', at) - at));
      labeled_pids.insert(pid);
      continue;
    }
    span_pids.insert(pid);
    auto& stack = stacks[{pid, tid}];
    if (ph == "B") {
      stack.push_back(name);
      check.span_names.insert(name);
      ++check.begin_events;
    } else if (ph == "E") {
      if (stack.empty()) {
        ADD_FAILURE() << "E without B in lane " << pid << "/" << tid;
        continue;
      }
      EXPECT_EQ(stack.back(), name) << "E closes a span it did not open";
      stack.pop_back();
    } else {
      ADD_FAILURE() << "unexpected ph '" << ph << "': " << line;
    }
  }
  for (const auto& [lane, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed spans in lane " << lane.first << "/"
                               << lane.second;
  }
  for (const std::uint64_t pid : span_pids) {
    EXPECT_TRUE(labeled_pids.count(pid)) << "pid " << pid << " has no process_name";
  }
  return check;
}

TEST_F(ObsTest, TraceWriterEmitsBalancedNestedEvents) {
  set_trace_enabled(true);
  set_process_label(0, "test-process");
  {
    const Span outer("outer");
    { const Span inner("inner", "{\"k\":1}"); }
    { const Span inner2("inner2"); }
  }
  // Remote spans land in their own pid lane.
  TraceSpan remote;
  remote.name = "remote-span";
  remote.tid = 0;
  remote.start_ns = 1;
  remote.end_ns = 2;
  add_remote_spans(7, {remote});
  set_process_label(7, "worker 7");

  const std::string path = fresh_dir("obs_trace") + "/trace.json";
  std::string error;
  ASSERT_TRUE(write_trace(path, error)) << error;

  const TraceCheck check = validate_trace_file(path);
  EXPECT_EQ(check.begin_events, 4u);
  EXPECT_TRUE(check.span_names.count("outer"));
  EXPECT_TRUE(check.span_names.count("inner"));
  EXPECT_TRUE(check.span_names.count("inner2"));
  EXPECT_TRUE(check.span_names.count("remote-span"));
  EXPECT_TRUE(check.process_names.count("test-process"));
  EXPECT_TRUE(check.process_names.count("worker 7"));
}

// -- End-to-end through the dist driver --------------------------------------

#ifdef PAMR_DIST_BIN

using suitetest::expect_outputs_match;
using suitetest::run_dist;

TEST_F(ObsTest, DistUnitCountersMatchInProcessBitForBit) {
  // Reference: the 1-thread in-process run of the same campaign.
  const Snapshot reference = run_suite_and_snapshot(1);

  reset();
  std::vector<scenario::SuiteEntry> entries{
      {&test_scenario(), test_scenario().default_seed}};
  const dist::CampaignPlan plan =
      dist::build_campaign_plan(std::move(entries), kTrials, kChunk);
  dist::CoordinatorOptions options;
  options.workers = 2;
  options.worker_exe = PAMR_DIST_BIN;
  options.out_dir = fresh_dir("obs_dist_ctr");
  const dist::CampaignOutcome outcome = dist::run_campaign(plan, options);
  ASSERT_TRUE(outcome.complete);
  const Snapshot dist_snap = snapshot();

  // Worker counter deltas came back over the wire and merged here: every
  // unit-scoped cell matches the single-process run exactly.
  for (std::size_t c = 0; c < kTotalCells; ++c) {
    if (!unit_scoped_cell(c)) continue;
    EXPECT_EQ(dist_snap.cells[c], reference.cells[c])
        << "cell " << c << " of " << info(cell_metric(c)).name
        << " differs between in-process and 2-worker dist";
  }
  EXPECT_EQ(dist_snap.counter(Metric::kDistUnitsDispatched), plan.units.size());
  EXPECT_EQ(dist_snap.counter(Metric::kDistWorkerSpawns), 2u);
  EXPECT_EQ(dist_snap.counter(Metric::kDistUnitsRequeued), 0u);
  EXPECT_EQ(dist_snap.counter(Metric::kDistUnitsResumeSkipped), 0u);
  EXPECT_EQ(dist_snap.timer_calls(Metric::kPhaseDistCampaign), 1u);
}

TEST_F(ObsTest, TelemetryFlagsLeaveResultBytesIdentical) {
  // The "off" baseline must not inherit telemetry from this process.
  unsetenv("PAMR_OBS");
  unsetenv("PAMR_OBS_TRACE");

  const std::string base = "--run " + std::string(kScenarioName) +
                           " --workers 2 --trials " + std::to_string(kTrials) +
                           " --chunk " + std::to_string(kChunk) +
                           " --no-tables --out ";

  const std::string off_dir = fresh_dir("obs_off");
  ASSERT_EQ(run_dist(base + off_dir), 0);

  const std::string on_dir = fresh_dir("obs_on");
  const std::string flags = " --trace-out " + on_dir + "/trace.json" +
                            " --metrics-out " + on_dir + "/report.json";
  ASSERT_EQ(run_dist(base + on_dir + flags), 0);
  expect_outputs_match(off_dir, on_dir, kScenarioName);

  // Interrupted after one unit, resumed — still byte-identical, and the
  // resumed invocation overwrites the partial telemetry files.
  const std::string resume_dir = fresh_dir("obs_flags_resume");
  const std::string resume_flags = " --trace-out " + resume_dir + "/trace.json" +
                                   " --metrics-out " + resume_dir + "/report.json";
  ASSERT_EQ(run_dist(base + resume_dir + resume_flags + " --max-units 1"), 3);
  ASSERT_EQ(run_dist(base + resume_dir + resume_flags + " --resume"), 0);
  expect_outputs_match(off_dir, resume_dir, kScenarioName);

  // The merged multi-process trace is structurally valid and shows the
  // route phases inside worker unit spans.
  const TraceCheck check = validate_trace_file(on_dir + "/trace.json");
  EXPECT_TRUE(check.process_names.count("coordinator"));
  EXPECT_TRUE(check.process_names.count("worker 1"));
  EXPECT_TRUE(check.process_names.count("worker 2"));
  EXPECT_TRUE(check.span_names.count("phase.route.XYI"));
  EXPECT_TRUE(check.span_names.count("phase.route.PR"));
  EXPECT_TRUE(check.span_names.count("phase.route.IG"));
  EXPECT_TRUE(check.span_names.count("phase.dist.campaign"));
  bool unit_span = false;
  for (const std::string& name : check.span_names) {
    unit_span = unit_span || name.rfind("unit ", 0) == 0;
  }
  EXPECT_TRUE(unit_span) << "no per-unit span in the merged trace";

  // The report carries the pinned counters of the whole campaign.
  const std::string report = read_file(on_dir + "/report.json");
  EXPECT_NE(report.find("\"schema\": \"pamr-metrics/1\""), std::string::npos);
  EXPECT_NE(report.find("\"driver\": \"pamr_dist\""), std::string::npos);
  const std::uint64_t instances =
      test_scenario().points.size() * static_cast<std::uint64_t>(kTrials);
  EXPECT_NE(report.find("\"route.calls\": {\"scope\": \"unit\", \"value\": " +
                        std::to_string(6 * (instances - kCertified + kCrossChecked) +
                                       kReRouted) +
                        "}"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("\"route.certified_infeasible\": {\"scope\": \"unit\", "
                        "\"value\": " +
                        std::to_string(kCertified) + "}"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("\"route.stopped_early\": {\"scope\": \"unit\", \"value\": " +
                        std::to_string(kStopped) + "}"),
            std::string::npos)
      << report;
  const std::string resumed_report = read_file(resume_dir + "/report.json");
  EXPECT_NE(resumed_report.find("\"dist.units.resume_skipped\": {\"scope\": "
                                "\"driver\", \"value\": 1}"),
            std::string::npos)
      << resumed_report;
}

TEST_F(ObsTest, FullDifferentialBatteryWithTelemetryOn) {
  // The standard four-way battery (1 thread == 4 threads == 2-worker dist
  // == interrupted + resumed dist), with counters and tracing live in every
  // process: telemetry must not move a single output byte.
  ASSERT_EQ(setenv("PAMR_OBS", "1", 1), 0);
  ASSERT_EQ(setenv("PAMR_OBS_TRACE", "1", 1), 0);
  set_trace_enabled(true);
  suitetest::expect_suite_differential(test_scenario(),
                                       "--run " + std::string(kScenarioName), kTrials,
                                       kChunk, "obs_battery");
}

#endif  // PAMR_DIST_BIN

}  // namespace
}  // namespace obs
}  // namespace pamr
