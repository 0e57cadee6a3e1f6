// Distributed campaign driver: shard scenario suites over worker processes
// with a resumable on-disk journal.
//
//   $ pamr_dist --run fig7a_small --workers 4 --out runs/fig7a
//   $ pamr_dist --run all --workers 8 --trials 50000 --out runs/full
//   $ pamr_dist --run all --workers 8 --trials 50000 --out runs/full --resume
//
// The final CSV/JSON tables in --out are byte-identical to what
// `pamr_scenarios --run <same> --csv --json` writes for the same trials and
// seeds — any worker count, resumed or not (see README "Distributed runs").
// The options shared with pamr_scenarios (--run, --spec, --trials, --seed,
// --trace-out, --metrics-out) and their rules live in campaign_args.hpp.
//
// `--worker` is internal: the coordinator re-executes this binary with it
// to obtain shard children speaking the pipe protocol.
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>

#include "campaign_args.hpp"
#include "pamr/dist/coordinator.hpp"
#include "pamr/dist/worker.hpp"

int main(int argc, char** argv) {
  using namespace pamr;

  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--worker") {
      return dist::run_worker(stdin, stdout);
    }
  }

  ArgParser parser("pamr_dist",
                   "run scenario suites sharded over worker processes");
  CampaignArgs campaign(parser, "pamr_dist");
  parser.add_int("workers", 2, "worker processes", "PAMR_WORKERS");
  parser.add_int("chunk", 8, "instances per work unit");
  parser.add_string("out", "pamr_dist_out",
                    "campaign directory: journal, stream.csv, final tables");
  parser.add_flag("resume", "continue from the journal in --out");
  parser.add_flag("no-tables", "skip printing the merged tables to stdout");
  parser.add_int("max-units", 0,
                 "dispatch at most N new units then stop (checkpoint hook); 0 = all");
  parser.add_flag("worker", "internal: run as a pipe-protocol worker");
  int exit_code = 0;
  if (!parser.parse(argc, argv, exit_code)) return exit_code;

  if (!campaign.resolve()) return 2;
  const std::int64_t chunk = parser.get_int("chunk");
  if (chunk < 1 || chunk > 1'000'000) {
    std::fprintf(stderr, "--chunk must be in [1, 1000000], got %lld\n",
                 static_cast<long long>(chunk));
    return 2;
  }
  const std::int64_t workers = parser.get_int("workers");
  if (workers < 1 || workers > 256) {
    std::fprintf(stderr, "--workers must be in [1, 256], got %lld\n",
                 static_cast<long long>(workers));
    return 2;
  }
  const std::int64_t max_units = parser.get_int("max-units");
  if (max_units < 0) {
    std::fprintf(stderr, "--max-units must be >= 0, got %lld\n",
                 static_cast<long long>(max_units));
    return 2;
  }

  dist::CoordinatorOptions options;
  options.workers = static_cast<std::size_t>(workers);
  options.worker_exe = dist::self_executable(argv[0]);
  options.out_dir = parser.get_string("out");
  options.resume = parser.get_flag("resume");
  options.max_units = static_cast<std::uint64_t>(max_units);

  try {
    const dist::CampaignPlan plan = dist::build_campaign_plan(
        campaign.entries(), campaign.instances(), static_cast<std::size_t>(chunk));
    const dist::CampaignOutcome outcome = dist::run_campaign(plan, options);

    // Written even when interrupted: a partial trace/report is still useful,
    // and the resumed invocation overwrites both with the complete picture.
    if (!campaign.write_telemetry([&plan] { return plan.fingerprint; })) return 1;

    std::fprintf(stderr,
                 "pamr_dist: %zu/%zu units (%zu resumed, %zu run, %zu worker "
                 "failures) in %.1fs\n",
                 outcome.units_resumed + outcome.units_run, outcome.units_total,
                 outcome.units_resumed, outcome.units_run, outcome.worker_failures,
                 outcome.elapsed_seconds);
    if (!outcome.complete) {
      // Echo back every parameter the journal fingerprint pins, so the
      // pasted command cannot be refused as a different campaign.
      std::string hint = "pamr_dist ";
      hint += campaign.spec_text().empty() ? "--run " + campaign.run_names()
                                           : "--spec '" + campaign.spec_text() + "'";
      hint += " --trials " + std::to_string(plan.instances) + " --chunk " +
              std::to_string(plan.chunk);
      if (campaign.seed() >= 0) hint += " --seed " + std::to_string(campaign.seed());
      hint += " --out " + options.out_dir + " --resume";
      std::fprintf(stderr, "pamr_dist: campaign interrupted; resume with:  %s\n",
                   hint.c_str());
      return 3;
    }
    for (const scenario::ScenarioResult& result : outcome.results) {
      if (!parser.get_flag("no-tables")) {
        scenario::print_scenario_result(result, plan.instances);
      }
      if (!scenario::write_scenario_outputs(result, options.out_dir, /*write_csv=*/true,
                                            /*write_json=*/true)) {
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pamr_dist: %s\n", e.what());
    return 1;
  }
  return 0;
}
