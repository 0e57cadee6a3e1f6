// pamr_perfbench: runs one benchmark workload and prints one JSON report.
//
//   pamr_perfbench --workload paper8 --seed 1 --seconds 10 --trace 0 --out DIR
//
// With --trace 0 it repeats whole rounds through the workload's entry point
// until --seconds have passed, measuring set-up sequences before each
// round, and reports the end-to-end metrics as medians over rounds and
// set-ups. The first round's result files go to DIR/measured
// and every later round must reproduce them byte for byte. With --trace 1 it
// reports the per-layer metrics of replay.hpp instead. The distributed
// workload also runs one in-process round into DIR/suite, which must match
// DIR/measured byte for byte, and a run whose --seed is not kReferenceSeed
// runs one round on that seed into DIR/reference; run.py compares these
// directories and the recorded digests.
//
// `--worker` turns the process into a dist worker; the coordinator
// re-executes this binary with it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "pamr/dist/coordinator.hpp"
#include "pamr/dist/worker.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/stats.hpp"
#include "pamr/util/string_util.hpp"
#include "pamr/util/timer.hpp"
#include "replay.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

// Set-up takes well under a millisecond in process and a few with worker
// spawns, and how fast a thread or process starts drifts with the host's
// load, so set-up is sampled many times, spread over the whole run.
constexpr int kSetupRunsFirst = 16;
constexpr int kSetupRunsPerRound = 4;

// The seed whose result digests perfbench/digests.json records.
constexpr std::uint64_t kReferenceSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "pamr_perfbench: %s\nusage: pamr_perfbench --workload {%s} --seed N "
               "--seconds S --trace {0,1} --out DIR\n",
               problem.c_str(), workload_names().c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value.front() == '-') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (args.workload.empty() || args.out.empty()) usage("--workload and --out are required");
  return args;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  out += pamr::json_escape(text);
  out += '"';
  return out;
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int run(const Args& args, const std::string& exe) {
  const WorkloadDef* def = find_workload(args.workload);
  if (def == nullptr) usage("unknown workload '" + args.workload + "'");
  pamr::obs::set_enabled(false);
  pamr::obs::set_trace_enabled(false);
  const Layout layout = default_layout();
  const Campaign campaign(*def, args.seed);
  std::filesystem::create_directories(args.out);

  std::vector<double> setup_samples;
  const std::string setup_dir = args.out + "/setup";
  const auto measure_setup = [&](int runs) {
    for (int rep = 0; rep < runs; ++rep) {
      setup_samples.push_back(setup_once(*def, args.seed, layout, exe, setup_dir));
    }
  };
  measure_setup(kSetupRunsFirst);

  RunLedger ledger(campaign, args.out + "/measured");
  const std::string round_dir = args.out + "/round";
  std::vector<Metric> metrics;
  std::size_t rounds = 0;
  if (args.trace == 0) {
    std::vector<double> rates;
    std::vector<double> cpu_ms;
    const pamr::WallTimer loop;
    do {
      measure_setup(kSetupRunsPerRound);
      const RoundResult round = run_round(campaign, layout, def->distributed, exe, round_dir);
      ledger.account(round);
      rates.push_back(static_cast<double>(campaign.instances()) / round.wall_s);
      cpu_ms.push_back(round.cpu_s * 1e3 / static_cast<double>(campaign.instances()));
      ++rounds;
    } while (loop.elapsed_seconds() < args.seconds);
    if (def->distributed) {
      const RoundResult suite = run_round(campaign, layout, false, exe, round_dir);
      ledger.account(suite);
      if (!write_results(suite.results, args.out + "/suite")) {
        ledger.record(0, 0, "cannot write the in-process results");
      }
    }
    metrics = {{"instances_per_s", pamr::median_of(rates), "1/s"},
               {"cpu_ms_per_instance", pamr::median_of(cpu_ms), "ms"},
               {"setup_s", pamr::median_of(setup_samples), "s"},
               {"peak_rss_mb", peak_rss_mb(), "MiB"}};
  } else {
    const TracedRun traced = run_traced(campaign, layout, exe, args.seconds, args.out, ledger);
    rounds = traced.rounds;
    metrics = traced.metrics;
  }
  // Result digests are recorded for the reference seed only, so a run on
  // another seed also runs one round on it, into DIR/reference.
  if (args.seed != kReferenceSeed) {
    const Campaign reference(*def, kReferenceSeed);
    const RoundResult round = run_round(reference, layout, def->distributed, exe, round_dir);
    ledger.record(reference.units(), std::min(round.failed_units, reference.units()),
                  round.error);
    if (!write_results(round.results, args.out + "/reference")) {
      ledger.record(0, 0, "cannot write the reference-seed results");
    }
  }
  std::filesystem::remove_all(round_dir);
  std::filesystem::remove_all(setup_dir);

  std::string json = "{\"workload\":" + json_string(def->name);
  json += ",\"seed\":" + std::to_string(args.seed);
  json += ",\"reference_seed\":" + std::to_string(kReferenceSeed);
  json += ",\"trace\":" + std::to_string(args.trace);
  json += ",\"entry_point\":" + json_string(def->distributed ? "dist::run_campaign"
                                                        : "SuiteRunner::run_all");
  json += ",\"threads\":" + std::to_string(def->distributed ? 0 : layout.threads);
  json += ",\"workers\":" + std::to_string(def->distributed ? layout.workers : 0);
  json += ",\"rounds\":" + std::to_string(rounds);
  json += ",\"instances_per_round\":" + std::to_string(campaign.instances());
  json += ",\"units_per_round\":" + std::to_string(campaign.units());
  json += ",\"scenario_units\":{";
  bool first = true;
  for (const auto& [name, units] : campaign.units_by_scenario()) {
    if (!first) json += ',';
    json += json_string(name) + ":" + std::to_string(units);
    first = false;
  }
  json += "},\"attempted\":" + std::to_string(ledger.attempted());
  json += ",\"failed\":" + std::to_string(ledger.failed());
  json += ",\"error\":" + json_string(ledger.error());
  json += ",\"build\":{\"compiler\":" + json_string(PERFBENCH_COMPILER);
  json += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  json += ",\"check_level\":" + std::to_string(pamr::compiled_check_level());
  json += std::string(",\"obs\":") + (pamr::obs::compiled_in() ? "true" : "false");
  json += "},\"metrics\":{";
  first = true;
  for (const Metric& m : metrics) {
    if (!first) json += ',';
    json += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
            ",\"unit\":" + json_string(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return std::fflush(stdout) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--worker") {
      return pamr::dist::run_worker(stdin, stdout);
    }
  }
  const Args args = parse_args(argc, argv);
  try {
    return run(args, pamr::dist::self_executable(argv[0]));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pamr_perfbench: %s\n", e.what());
    return 1;
  }
}
