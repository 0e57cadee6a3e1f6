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
//
// The nine figure suites run as one SuiteRunner::run_all batch, each under
// its own figure seed unless --seed overrides them all, so the summary
// covers exactly the instances the figure suites plot.
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
  parser.add_int("seed", -1, "campaign seed for every suite (-1: each figure's own)");
  int exit_code = 0;
  if (!parser.parse(argc, argv, exit_code) ||
      !parser.require_in("trials", 1, 10'000'000, exit_code)) {
    return exit_code;
  }

  scenario::SuiteOptions options;
  options.instances = static_cast<std::int32_t>(parser.get_int("trials"));
  std::vector<scenario::SuiteEntry> entries;
  std::string error;
  if (!scenario::resolve_suite_entries(
          scenario::ScenarioRegistry::builtin(),
          "fig7a_small,fig7b_mixed,fig7c_big,fig8a_few_10comms,fig8b_some_20comms,"
          "fig8c_numerous_40comms,fig9a_numerous_small,fig9b_some_mixed,fig9c_few_big",
          parser.get_int("seed"), entries, error)) {
    std::fprintf(stderr, "table_summary: %s\n", error.c_str());
    return 1;
  }

  // Telemetry counts the route calls that stopped early.
  obs::set_enabled(true);
  obs::reset();

  // "On average, over all problem instances" (§6.4) — aggregate across the
  // workloads of all three figures.
  exp::PointAggregate all;
  for (const scenario::ScenarioResult& result :
       scenario::SuiteRunner(options).run_all(entries)) {
    for (const scenario::ScenarioPointResult& point : result.points) {
      all.merge(point.aggregate);
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
  const obs::Snapshot counts = obs::snapshot();
  std::printf("route calls stopped at their first certain overload: %llu of %llu\n",
              static_cast<unsigned long long>(counts.counter(obs::Metric::kRouteStoppedEarly)),
              static_cast<unsigned long long>(counts.counter(obs::Metric::kRouteCalls)));
  std::printf("static power fraction of BEST (paper: ~1/7 = 0.143): %.3f\n",
              all.static_fraction.mean());
  std::printf("BEST finds a solution %.1fx as often as XY (paper: ~3.4x)\n",
              static_cast<double>(all.instances - all.failures[exp::kBestSeries]) /
                  static_cast<double>(
                      std::max<std::size_t>(1, all.instances - all.failures[0])));
  return 0;
}
