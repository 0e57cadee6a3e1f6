// Figure 9 — sensitivity to the average Manhattan length (§6.3).
//
// Panels on the 8×8 CMP, length swept 2..14:
//   (a) 100 small communications, U[200, 800) Mb/s;
//   (b) 25 mixed, U[100, 3500);
//   (c) 12 big, U[2700, 3300).
// Expect: XYI best for short lengths, PR takes over as length (hence
// contention) grows; BEST's failures peak at length 2 (short communications
// are often collinear and cannot be separated). The sweeps are the
// registry scenarios fig9{a,b,c}_*.
#include <cstdio>

#include "pamr/scenario/suite_runner.hpp"
#include "pamr/util/args.hpp"

int main(int argc, char** argv) {
  using namespace pamr;
  ArgParser parser("fig9_comm_length", "paper Figure 9: sweep over Manhattan length");
  parser.add_int("trials", scenario::SuiteOptions{}.instances, "instances per point",
                 "PAMR_TRIALS");
  parser.add_int("seed", 9, "campaign base seed");
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
       {"fig9a_numerous_small", "fig9b_some_mixed", "fig9c_few_big"}) {
    scenario::run_and_report(scenario::ScenarioRegistry::builtin().at(name),
                             options, parser.get_flag("csv"), parser.get_flag("json"));
  }
  return 0;
}
