// Figure 7 — sensitivity to the number of communications (§6.1).
//
// Three panels on the 8×8 CMP with Kim–Horowitz discrete links:
//   (a) small communications, weights U[100, 1500) Mb/s, nc = 0..140;
//   (b) mixed, U[100, 2500), nc = 0..70;
//   (c) big,   U[2500, 3500), nc = 0..30.
// For each point: mean normalized power inverse (w.r.t. BEST; 0 on
// failure) and failure ratio per policy. The paper uses 50 000 instances
// per point; --trials / PAMR_TRIALS selects the sample size here. The
// sweeps are the registry scenarios fig7{a,b,c}_* run on the scenario
// engine — `pamr_scenarios --run fig7a_small` prints the same numbers.
#include <cstdio>

#include "pamr/scenario/suite_runner.hpp"
#include "pamr/util/args.hpp"

int main(int argc, char** argv) {
  using namespace pamr;
  ArgParser parser("fig7_num_comms", "paper Figure 7: sweep over nc");
  parser.add_int("trials", scenario::SuiteOptions{}.instances, "instances per point",
                 "PAMR_TRIALS");
  parser.add_int("seed", 7, "campaign base seed");
  parser.add_flag("csv", "also write CSV files to PAMR_OUT_DIR");
  parser.add_flag("json", "also write JSON files to PAMR_OUT_DIR");
  int exit_code = 0;
  if (!parser.parse(argc, argv, exit_code)) return exit_code;

  const std::int64_t trials = parser.get_int("trials");
  if (trials < 1 || trials > 10'000'000) {
    std::fprintf(stderr, "--trials must be in [1, 10000000]\n");
    return 2;
  }
  scenario::SuiteOptions options;
  options.instances = static_cast<std::int32_t>(trials);
  options.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  for (const char* name : {"fig7a_small", "fig7b_mixed", "fig7c_big"}) {
    scenario::run_and_report(scenario::ScenarioRegistry::builtin().at(name),
                             options, parser.get_flag("csv"), parser.get_flag("json"));
  }
  return 0;
}
