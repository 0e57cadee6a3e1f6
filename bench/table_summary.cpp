// §6.4 summary statistics — the paper's closing numbers, regenerated over
// the union of the Figure 7, 8 and 9 workloads ("over all problem
// instances"):
//   * success rates: "XY succeeds only 15% of the times, while XYI and PR
//     succeed respectively 46% and 50% ... BEST succeeds 51%";
//   * mean inverse-power ratio over XY: "2.44 (resp. 2.57) times higher in
//     XYI (resp. PR) than in XY, and even 2.95 times higher in BEST";
//   * mean runtimes: "24 ms for XYI, and 38 ms for PR" — over the routed
//     instances; those the infeasibility certificate rejects run no policy,
//     and a failing XY, SG, IG, TB or PR call stops at its first certain
//     overload, so those means are not the paper's complete-run times;
//   * static power ≈ 1/7 of total (BEST, valid instances).
#include <cstdio>

#include "pamr/obs/obs.hpp"
#include "pamr/scenario/suite_runner.hpp"
#include "pamr/util/args.hpp"
#include "pamr/util/csv.hpp"

int main(int argc, char** argv) {
  using namespace pamr;
  ArgParser parser("table_summary", "paper §6.4 summary statistics");
  parser.add_int("trials", scenario::SuiteOptions{}.instances, "instances per point",
                 "PAMR_TRIALS");
  parser.add_int("seed", 64, "campaign base seed");
  int exit_code = 0;
  if (!parser.parse(argc, argv, exit_code)) return exit_code;

  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  const auto trials = static_cast<std::int32_t>(parser.get_int("trials"));
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));

  // Telemetry counts the route calls that stopped early.
  obs::set_enabled(true);
  obs::reset();

  // "On average, over all problem instances" (§6.4) — aggregate across the
  // workloads of all three figures.
  exp::PointAggregate all;
  std::uint64_t point_id = 0;
  for (const char* name :
       {"fig7a_small", "fig7b_mixed", "fig7c_big", "fig8a_few_10comms",
        "fig8b_some_20comms", "fig8c_numerous_40comms", "fig9a_numerous_small",
        "fig9b_some_mixed", "fig9c_few_big"}) {
    for (const scenario::ScenarioPoint& point :
         scenario::ScenarioRegistry::builtin().at(name).points) {
      all.merge(scenario::run_scenario_point(mesh, model, point.spec, trials, seed,
                                             point_id++));
    }
  }

  // Paper reference values for the table.
  const double paper_success[exp::kNumSeries] = {0.15, -1, -1, -1, 0.46, 0.50, 0.51};
  const double paper_ratio[exp::kNumSeries] = {1.0, -1, -1, -1, 2.44, 2.57, 2.95};
  const double paper_ms[exp::kNumSeries] = {-1, -1, -1, -1, 24.0, 38.0, -1};

  const double xy_inverse = all.inverse_power[0].mean();
  Table table({"heuristic", "success rate", "paper", "invP ratio vs XY", "paper",
               "mean runtime, routed instances, failures stop early (ms)",
               "paper (ms)"});
  table.set_double_precision(3);
  for (std::size_t s = 0; s < exp::kNumSeries; ++s) {
    const double success =
        1.0 - static_cast<double>(all.failures[s]) / static_cast<double>(all.instances);
    const double ratio =
        xy_inverse > 0.0 ? all.inverse_power[s].mean() / xy_inverse : 0.0;
    auto paper_cell = [](double value) -> Cell {
      return value < 0 ? Cell{std::string{"-"}} : Cell{value};
    };
    table.add_row({std::string{exp::series_name(s)}, success,
                   paper_cell(paper_success[s]), ratio, paper_cell(paper_ratio[s]),
                   all.elapsed_ms[s].mean(), paper_cell(paper_ms[s])});
  }

  std::printf(
      "== §6.4 summary over the Figure 7+8+9 workload mix (%zu instances) ==\n%s\n",
      all.instances, table.to_text().c_str());
  std::printf("certified infeasible before routing (no policy ran): %zu of %zu\n",
              all.certified(), all.instances);
  if (obs::compiled_in()) {
    const obs::Snapshot counts = obs::snapshot();
    std::printf("route calls stopped at their first certain overload: %llu of %llu\n",
                static_cast<unsigned long long>(counts.counter(obs::Metric::kRouteStoppedEarly)),
                static_cast<unsigned long long>(counts.counter(obs::Metric::kRouteCalls)));
  } else {
    std::printf("route calls stopped at their first certain overload: n/a (PAMR_OBS=0)\n");
  }
  std::printf("static power fraction of BEST (paper: ~1/7 = 0.143): %.3f\n",
              all.static_fraction.mean());
  std::printf("BEST finds a solution %.1fx as often as XY (paper: ~3.4x)\n",
              static_cast<double>(all.instances - all.failures[exp::kBestSeries]) /
                  static_cast<double>(
                      std::max<std::size_t>(1, all.instances - all.failures[0])));
  return 0;
}
