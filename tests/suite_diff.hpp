// Reusable differential-determinism fixture for suite execution paths.
//
// The repo's core output guarantee is that every execution path of a
// campaign — 1-thread SuiteRunner, N-thread SuiteRunner, N-worker
// `pamr_dist`, and an interrupted-then-`--resume`d `pamr_dist` — produces
// bit-identical aggregates and byte-identical CSV/JSON. test_dist pinned
// that for the original workloads; this header is the same harness
// extracted so every new workload layer (trace replay, open-loop injection,
// placement modes, mesh sweeps) runs the identical battery instead of
// copying it.
//
// The end-to-end halves need the real pamr_dist binary: targets that want
// them get `PAMR_DIST_BIN` injected by CMake; without it the in-process
// thread-count differential still runs.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pamr/scenario/suite_runner.hpp"

namespace pamr {
namespace suitetest {

// -- Bitwise equality --------------------------------------------------------

inline void expect_stats_identical(const RunningStats& a, const RunningStats& b) {
  const RunningStats::State sa = a.state();
  const RunningStats::State sb = b.state();
  EXPECT_EQ(sa.n, sb.n);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.mean), std::bit_cast<std::uint64_t>(sb.mean));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.m2), std::bit_cast<std::uint64_t>(sb.m2));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.min), std::bit_cast<std::uint64_t>(sb.min));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.max), std::bit_cast<std::uint64_t>(sb.max));
}

inline void expect_aggregate_identical(const exp::PointAggregate& a,
                                       const exp::PointAggregate& b) {
  EXPECT_EQ(a.instances, b.instances);
  for (std::size_t s = 0; s < exp::kNumSeries; ++s) {
    expect_stats_identical(a.normalized_inverse[s], b.normalized_inverse[s]);
    expect_stats_identical(a.inverse_power[s], b.inverse_power[s]);
    EXPECT_EQ(a.failures[s], b.failures[s]);
  }
  expect_stats_identical(a.static_fraction, b.static_fraction);
  expect_stats_identical(a.sim_latency, b.sim_latency);
  expect_stats_identical(a.sim_delivery, b.sim_delivery);
  expect_stats_identical(a.sim_throughput, b.sim_throughput);
}

// -- Small file/plumbing helpers ---------------------------------------------

inline scenario::ScenarioSpec parse_spec(const std::string& text) {
  scenario::ScenarioSpec spec;
  std::string error;
  EXPECT_TRUE(scenario::ScenarioSpec::parse(text, spec, error)) << error;
  return spec;
}

/// One scenario as a one-entry SuiteRunner::run_all batch under `seed`.
inline scenario::ScenarioResult run_scenario(const scenario::SuiteOptions& options,
                                             const scenario::Scenario& scenario,
                                             std::uint64_t seed) {
  return std::move(scenario::SuiteRunner(options).run_all({{&scenario, seed}}).front());
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

inline std::string fresh_dir(const std::string& name) {
  const std::string path = testing::TempDir() + "pamr_suite_" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

/// The same ad-hoc wrapper `--spec` uses in both CLIs (scenario::
/// adhoc_scenario), from text — in-process reference outputs stay
/// byte-comparable with `pamr_dist --spec` outputs by construction.
inline scenario::Scenario adhoc_scenario(const std::string& spec_text) {
  return scenario::adhoc_scenario(parse_spec(spec_text));
}

/// In-process thread-count differential: 1 thread vs 4 threads, aggregates
/// compared bit-for-bit. Returns the 1-thread result (the reference).
inline scenario::ScenarioResult expect_thread_count_invariant(
    const scenario::Scenario& scenario, std::int32_t trials, std::size_t chunk) {
  scenario::SuiteOptions options;
  options.instances = trials;
  options.chunk = chunk;
  options.threads = 1;
  scenario::ScenarioResult reference =
      run_scenario(options, scenario, scenario.default_seed);
  options.threads = 4;
  const scenario::ScenarioResult threaded =
      run_scenario(options, scenario, scenario.default_seed);
  EXPECT_EQ(reference.points.size(), threaded.points.size());
  for (std::size_t p = 0; p < reference.points.size(); ++p) {
    expect_aggregate_identical(reference.points[p].aggregate,
                               threaded.points[p].aggregate);
  }
  return reference;
}

#ifdef PAMR_DIST_BIN

inline int run_dist(const std::string& args) {
  const std::string command = std::string(PAMR_DIST_BIN) + " " + args + " > /dev/null";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Compares every output file the reference run wrote (CSV tables, the sim
/// table when present, JSON) byte-for-byte against `dir`.
inline void expect_outputs_match(const std::string& reference_dir,
                                 const std::string& dir, const std::string& name) {
  std::size_t compared = 0;
  for (const auto& entry : std::filesystem::directory_iterator(reference_dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind(name, 0) != 0) continue;
    EXPECT_EQ(read_file(dir + "/" + file), read_file(entry.path().string()))
        << file << " differs from the single-process run";
    ++compared;
  }
  EXPECT_GE(compared, 3u) << "reference run wrote fewer files than expected";
}

/// The full battery for one scenario:
///   1-thread SuiteRunner == N-thread SuiteRunner   (bitwise aggregates)
///   == 2-worker pamr_dist                          (byte-identical files)
///   == interrupted + --resume'd pamr_dist          (byte-identical files)
/// `dist_selector` is the campaign argument for pamr_dist: "--run <name>"
/// or "--spec '<text>'".
inline void expect_suite_differential(const scenario::Scenario& scenario,
                                      const std::string& dist_selector,
                                      std::int32_t trials, std::size_t chunk,
                                      const std::string& tag) {
  const scenario::ScenarioResult reference =
      expect_thread_count_invariant(scenario, trials, chunk);
  const std::string reference_dir = fresh_dir(tag + "_ref");
  ASSERT_TRUE(scenario::write_scenario_outputs(reference, reference_dir,
                                               /*write_csv=*/true,
                                               /*write_json=*/true));

  const std::string base = dist_selector + " --workers 2 --trials " +
                           std::to_string(trials) + " --chunk " +
                           std::to_string(chunk) + " --no-tables --out ";

  // Straight 2-worker campaign.
  const std::string dist_dir = fresh_dir(tag + "_dist");
  ASSERT_EQ(run_dist(base + dist_dir), 0);
  expect_outputs_match(reference_dir, dist_dir, scenario.name);

  // Interrupted after one unit, then resumed from the journal.
  const std::string resume_dir = fresh_dir(tag + "_resume");
  ASSERT_EQ(run_dist(base + resume_dir + " --max-units 1"), 3);
  ASSERT_EQ(run_dist(base + resume_dir + " --resume"), 0);
  expect_outputs_match(reference_dir, resume_dir, scenario.name);
}

#endif  // PAMR_DIST_BIN

}  // namespace suitetest
}  // namespace pamr
