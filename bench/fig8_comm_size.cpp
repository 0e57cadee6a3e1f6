// Figure 8 — sensitivity to the size (weight) of communications (§6.2).
//
// Panels: (a) 10, (b) 20, (c) 40 communications on the 8×8 CMP; the average
// weight sweeps 100..3400 Mb/s (constant weights per instance — the paper's
// "every communication reaches 1751 Mb/s" cliff pins the distribution, see
// DESIGN.md). Expect: XYI dominates while unconstrained, collapses past the
// ~1750 Mb/s cliff where two communications can no longer share a link;
// PR is unaffected. The sweeps are the registry scenarios fig8{a,b,c}_*.
#include <cstdio>

#include "pamr/scenario/suite_runner.hpp"
#include "pamr/util/args.hpp"

int main(int argc, char** argv) {
  using namespace pamr;
  ArgParser parser("fig8_comm_size", "paper Figure 8: sweep over average weight");
  parser.add_int("trials", scenario::SuiteOptions{}.instances, "instances per point",
                 "PAMR_TRIALS");
  parser.add_int("seed", 8, "campaign base seed");
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
  for (const char* name :
       {"fig8a_few_10comms", "fig8b_some_20comms", "fig8c_numerous_40comms"}) {
    scenario::run_and_report(scenario::ScenarioRegistry::builtin().at(name),
                             options, parser.get_flag("csv"), parser.get_flag("json"));
  }
  return 0;
}
