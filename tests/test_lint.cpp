// The determinism-lint contract, pinned two ways: fixture source snippets
// through the real pamr_lint binary (PAMR_LINT_BIN, injected by CMake)
// asserting each rule fires exactly where it should — and that justified
// lines do not — plus the contract layer itself: the paranoid check level
// catching a deliberately corrupted LoadIndex.
//
// This TU raises its own check level so the gated macros are compiled in
// here regardless of the build's global level; whether the *library*'s
// automatic sweeps run is a runtime question answered by
// pamr::compiled_check_level().
#ifndef PAMR_CHECK_LEVEL
#define PAMR_CHECK_LEVEL 2
#endif

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/load_index.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/csv.hpp"

namespace pamr {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ lint fixture --

#ifdef PAMR_LINT_BIN

struct LintRun {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr, interleaved
};

class LintFixture : public testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(testing::TempDir()) / "pamr_lint_fixture";
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override { fs::remove_all(root_); }

  /// Writes a fixture source file at `rel` (under the fixture root).
  void write(const std::string& rel, const std::string& text) {
    const fs::path path = root_ / rel;
    fs::create_directories(path.parent_path());
    std::ofstream file(path);
    file << text;
    ASSERT_TRUE(file.good());
  }

  /// Runs the real linter over the fixture tree.
  [[nodiscard]] LintRun run(const std::string& extra_args = "") {
    const fs::path log = root_ / "lint.out";
    const std::string command = std::string(PAMR_LINT_BIN) + " --root " +
                                root_.string() + " " + extra_args + " . > " +
                                log.string() + " 2>&1";
    LintRun result;
    const int status = std::system(command.c_str());
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::ifstream file(log);
    std::ostringstream text;
    text << file.rdbuf();
    result.output = text.str();
    return result;
  }

  fs::path root_;
};

TEST_F(LintFixture, CleanTreePasses) {
  write("routing/clean.cpp",
        "#include <map>\n"
        "std::map<int, int> ordered;\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("clean"), std::string::npos) << run.output;
}

TEST_F(LintFixture, UnorderedContainerInResultPathFires) {
  write("routing/bad.cpp", "std::unordered_map<int, int> loads;\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("routing/bad.cpp:1: [ordered-iteration]"),
            std::string::npos)
      << run.output;
}

TEST_F(LintFixture, UnorderedContainerInSimMapOptFires) {
  // The simulator (*_sim.csv), placement (place=optimized) and the exact
  // solvers feed result files too.
  write("sim/bad.cpp", "std::unordered_map<int, int> routes;\n");
  write("map/bad.cpp", "std::unordered_set<int> taken;\n");
  write("opt/bad.cpp", "std::unordered_map<int, double> value;\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  for (const char* file : {"sim/bad.cpp", "map/bad.cpp", "opt/bad.cpp"}) {
    EXPECT_NE(run.output.find(std::string(file) + ":1: [ordered-iteration]"),
              std::string::npos)
        << file << "\n"
        << run.output;
  }
}

TEST_F(LintFixture, UnorderedContainerOutsideResultPathsAllowed) {
  // util/ is not a result-producing path; the rule stays quiet.
  write("util/fine.cpp", "std::unordered_map<int, int> cache;\n");
  EXPECT_EQ(run().exit_code, 0);
}

TEST_F(LintFixture, JustifiedUnorderedContainerAllowed) {
  write("scenario/fine.cpp",
        "// pamr-lint: ordered-ok (membership only, iterated sorted)\n"
        "std::unordered_set<int> chosen;\n"
        "std::unordered_set<int> also_fine;  "
        "// pamr-lint: ordered-ok (same-line form)\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintFixture, BannedCallsFireAnywhere) {
  write("util/bad.cpp",
        "int a = rand();\n"
        "srand(42);\n"
        "long t = time(nullptr);\n"
        "setlocale(LC_ALL, \"\");\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("util/bad.cpp:1: [banned-call]"), std::string::npos);
  EXPECT_NE(run.output.find("util/bad.cpp:2: [banned-call]"), std::string::npos);
  EXPECT_NE(run.output.find("util/bad.cpp:3: [banned-call]"), std::string::npos);
  EXPECT_NE(run.output.find("util/bad.cpp:4: [banned-call]"), std::string::npos);
}

TEST_F(LintFixture, BannedCallRespectsIdentifierBoundaries) {
  // elapsed_time( / my_rand( must not match time( / rand(.
  write("util/fine.cpp",
        "double d = timer.elapsed_time();\n"
        "int r = my_rand();\n"
        "int s = runtime(3);\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintFixture, FloatFormatInWirePathFires) {
  write("dist/protocol_extra.cpp",
        "std::snprintf(buf, n, \"%7.2f\", value);\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("dist/protocol_extra.cpp:1: [float-format]"),
            std::string::npos)
      << run.output;
}

TEST_F(LintFixture, HexAndShortestExactFormattingAllowedInWirePaths) {
  write("scenario/trace_extra.cpp",
        "std::snprintf(buf, n, \"%.*g\", digits, value);\n"
        "std::snprintf(buf, n, \"%016llx\", bits);\n"
        "std::snprintf(buf, n, \"%d%%\", percent);\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintFixture, FloatFormatOutsideWirePathsAllowed) {
  // Display formatting (tables, logs) may use fixed precision.
  write("util/display.cpp", "std::snprintf(buf, n, \"%.4f\", value);\n");
  EXPECT_EQ(run().exit_code, 0);
}

TEST_F(LintFixture, RouteImplCallFires) {
  write("exp/bad.cpp", "RouteResult r = router->route_impl(mesh, comms, model);\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("exp/bad.cpp:1: [route-impl-call]"), std::string::npos)
      << run.output;
}

TEST_F(LintFixture, RouteImplDeclarationsAndDispatcherAllowed) {
  write("routing/decl.hpp",
        "[[nodiscard]] RouteResult route_impl(const Mesh& mesh) const override;\n");
  write("routing/impl.cpp",
        "RouteResult XYRouter::route_impl(const Mesh& mesh) const {\n"
        "  return {};\n"
        "}\n");
  // The validating front door itself is the one legal call site.
  write("routing/router.cpp", "  return route_impl(mesh, comms, model);\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintFixture, ClockFamilyOutsideCarveOutsFires) {
  write("exp/bad_clock.cpp",
        "auto t0 = std::chrono::steady_clock::now();\n"
        "auto t1 = std::chrono::high_resolution_clock::now();\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("exp/bad_clock.cpp:1: [clock-family]"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("exp/bad_clock.cpp:2: [clock-family]"),
            std::string::npos)
      << run.output;
}

TEST_F(LintFixture, ClockFamilyAllowedInCarveOutsAndWhenJustified) {
  // The two wall-time doors: the telemetry subsystem and util/timer.
  write("obs/registry_extra.cpp", "using Clock = std::chrono::steady_clock;\n");
  write("util/timer_extra.hpp", "using Clock = std::chrono::steady_clock;\n");
  write("scenario/justified.cpp",
        "// pamr-lint: clock-ok (coarse progress display only)\n"
        "auto t = std::chrono::steady_clock::now();\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintFixture, ObsValueReadbackInResultPathFires) {
  write("dist/bad_obs.cpp", "const auto snap = obs::snapshot();\n");
  write("scenario/bad_obs.cpp", "row += obs::encode_cell_deltas(a, b);\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("dist/bad_obs.cpp:1: [obs-value]"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("scenario/bad_obs.cpp:1: [obs-value]"),
            std::string::npos)
      << run.output;
}

TEST_F(LintFixture, ObsValueAllowedOutsideResultPathsOrJustified) {
  // The report writer reads the registry legitimately (obs/ is not a result
  // path); the dist side channel carries a written justification.
  write("obs/report_extra.cpp", "const auto snap = obs::snapshot();\n");
  write("dist/justified_obs.cpp",
        "// pamr-lint: obs-ok (side channel: deltas never touch the aggregate)\n"
        "reply.fields.emplace_back(\"ctr\", obs::encode_cell_deltas(a, b));\n");
  const LintRun run = this->run();
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(LintFixture, FixJustificationsListsEverySuppression) {
  write("routing/a.cpp",
        "// pamr-lint: ordered-ok (membership only)\n"
        "std::unordered_set<int> s;\n");
  write("scenario/b.cpp",
        "long t = time(nullptr);  // pamr-lint: determinism-ok (test hook)\n");
  const LintRun run = this->run("--fix-justifications");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("routing/a.cpp:1: ordered-ok (membership only)"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("scenario/b.cpp:1: determinism-ok (test hook)"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("2 suppression(s)"), std::string::npos) << run.output;
}

TEST_F(LintFixture, FixJustificationsRejectsBareSuppressions) {
  // A tag with no written (justification) defeats the audit: exit 1.
  write("routing/bare.cpp",
        "// pamr-lint: ordered-ok\n"
        "std::unordered_set<int> s;\n");
  const LintRun run = this->run("--fix-justifications");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no (justification)"), std::string::npos) << run.output;
}

#endif  // PAMR_LINT_BIN

// ------------------------------------------------- contract layer: macros --

TEST(ContractLayer, CheckThrowsCheckErrorWithStructuredMessage) {
  try {
    PAMR_CHECK(1 == 2, "one is not two");
    FAIL() << "PAMR_CHECK did not throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PAMR_CHECK[input] failed: 1 == 2"), std::string::npos)
        << what;
    EXPECT_NE(what.find("test_lint.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("one is not two"), std::string::npos) << what;
  }
}

TEST(ContractLayer, CheckErrorIsALogicError) {
  // Every pre-existing EXPECT_THROW(..., std::logic_error) stays valid.
  EXPECT_THROW(PAMR_CHECK(false, "nope"), std::logic_error);
}

TEST(ContractLayer, InvariantCarriesItsCategory) {
  try {
    PAMR_INVARIANT("load-index", false, "deliberately broken");
    FAIL() << "PAMR_INVARIANT did not throw (TU is compiled at level 2)";
  } catch (const InvariantError& e) {
    EXPECT_EQ(e.category(), "load-index");
    const std::string what = e.what();
    EXPECT_NE(what.find("PAMR_INVARIANT[load-index] failed"), std::string::npos)
        << what;
    EXPECT_NE(what.find("deliberately broken"), std::string::npos) << what;
  }
}

TEST(ContractLayer, PassingChecksAreSilent) {
  EXPECT_NO_THROW(PAMR_CHECK(true, "fine"));
  EXPECT_NO_THROW(PAMR_INVARIANT("anything", true, "fine"));
  PAMR_DCHECK(1 + 1 == 2);  // aborts on failure; passing is a no-op
}

TEST(ContractLayer, CompiledCheckLevelIsInRange) {
  EXPECT_GE(compiled_check_level(), 0);
  EXPECT_LE(compiled_check_level(), 2);
}

// -------------------------------------- paranoid mode vs corrupted index --

TEST(ParanoidLoadIndex, DirectSweepCatchesUnreportedLoadChange) {
  LinkLoads loads(4);
  loads.add(0, 4.0);
  loads.add(1, 3.0);
  loads.add(2, 2.0);
  loads.add(3, 1.0);
  LoadIndex index(4, loads);
  LoadOrder order(4, loads);
  EXPECT_NO_THROW(index.check_invariants(loads));
  EXPECT_NO_THROW(order.check_invariants(loads));

  // Corrupt: bump a cold link's load past the hot one WITHOUT telling
  // reorder() — the stored order is now stale, which is exactly the bug
  // class that silently changes PR's removal order.
  loads.add(3, 10.0);
  const auto expect_caught = [](const auto& sweep) {
    try {
      sweep();
      FAIL() << "corrupted index passed its invariant sweep";
    } catch (const InvariantError& e) {
      EXPECT_EQ(e.category(), "load-index");
      EXPECT_NE(std::string(e.what()).find("never reported"), std::string::npos)
          << e.what();
    }
  };
  expect_caught([&] { index.check_invariants(loads); });
  expect_caught([&] { order.check_invariants(loads); });
}

TEST(ParanoidLoadIndex, ReorderSweepsAutomaticallyUnderParanoidBuilds) {
  LinkLoads loads(3);
  loads.add(0, 3.0);
  loads.add(1, 2.0);
  loads.add(2, 1.0);
  LoadIndex index(3, loads);
  LoadOrder order(3, loads);
  const TouchLog empty(3);

  loads.add(2, 9.0);  // unreported corruption, as above
  if (compiled_check_level() >= 2) {
    // Paranoid library builds (sanitizer CI) sweep after every reorder; an
    // empty log leaves the stale order in place, so the sweep must throw.
    EXPECT_THROW(index.reorder(empty.changes, loads), InvariantError);
    EXPECT_THROW(order.reorder(empty.changes, loads), InvariantError);
  } else {
    // Default builds skip the automatic sweep — reorder accepts the stale
    // order (the direct sweep above is how it would be caught).
    EXPECT_NO_THROW(index.reorder(empty.changes, loads));
    EXPECT_NO_THROW(order.reorder(empty.changes, loads));
  }
}

TEST(ParanoidLoadIndex, StaleTreeNodeBelowTheTopIsCaughtUnderParanoidBuilds) {
  // An unreported change below the top: top() still names the right link,
  // so only the full node sweep sees the stale nodes under it (link 3's
  // leaf key, and the inner node that ranks link 2 above link 3).
  LinkLoads loads(4);
  loads.add(0, 4.0);
  loads.add(1, 3.0);
  loads.add(2, 2.0);
  loads.add(3, 1.0);
  LoadIndex index(4, loads);
  loads.add(3, 1.5);  // link 3 now outranks link 2, unreported
  ASSERT_EQ(index.top(), 0);

  // An honest, reported change elsewhere triggers the automatic sweep.
  TouchLog log(4);
  log.record(0, loads.load(0));
  loads.add(0, 1.0);
  if (compiled_check_level() >= 2) {
    try {
      index.reorder(log.changes, loads);
      FAIL() << "stale winner-tree node passed the paranoid sweep";
    } catch (const InvariantError& e) {
      EXPECT_EQ(e.category(), "load-index");
      EXPECT_NE(std::string(e.what()).find("winner-tree node"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("never reported"), std::string::npos)
          << e.what();
    }
  } else {
    EXPECT_NO_THROW(index.reorder(log.changes, loads));
    EXPECT_THROW(index.check_invariants(loads), InvariantError);
  }
}

TEST(ParanoidLoadIndex, ReorderKeepsInvariantsOnHonestUpdates) {
  LinkLoads loads(4);
  loads.add(0, 4.0);
  loads.add(1, 3.0);
  loads.add(2, 2.0);
  loads.add(3, 1.0);
  LoadIndex index(4, loads);
  LoadOrder order(4, loads);

  TouchLog log(4);
  log.record(3, loads.load(3));
  loads.add(3, 10.0);          // link 3 becomes the hottest...
  index.reorder(log.changes, loads);   // ...and reorder is told about it
  order.reorder(log.changes, loads);
  EXPECT_NO_THROW(index.check_invariants(loads));
  EXPECT_NO_THROW(order.check_invariants(loads));
  EXPECT_EQ(index.top(), 3);
  EXPECT_EQ(order.link_at(0), 3);
}

TEST(ParanoidCsvStream, AppendUnderMismatchedHeaderIsCaughtWhenParanoid) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::path(testing::TempDir()) / "pamr_stream_header_check.csv";
  fs::remove(path);
  {
    CsvStreamWriter first;
    ASSERT_TRUE(first.open(path.string(), {"name", "power"}, /*append=*/true));
    ASSERT_TRUE(first.append_row({std::string("xy"), 1.5}));
  }
  CsvStreamWriter resumed;
  if (compiled_check_level() >= 2) {
    // Paranoid library builds verify the on-disk header before appending:
    // the shard journal guarantees a resumed campaign reopens the stream
    // with the same columns, so a mismatch means the resume path regressed.
    EXPECT_THROW(
        (void)resumed.open(path.string(), {"name", "latency"}, /*append=*/true),
        InvariantError);
    CsvStreamWriter matching;
    EXPECT_TRUE(matching.open(path.string(), {"name", "power"}, /*append=*/true));
    EXPECT_TRUE(matching.append_row({std::string("pr"), 2.5}));
  } else {
    EXPECT_TRUE(
        resumed.open(path.string(), {"name", "latency"}, /*append=*/true));
  }
  fs::remove(path);
}

}  // namespace
}  // namespace pamr
