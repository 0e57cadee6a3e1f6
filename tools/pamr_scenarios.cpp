// Scenario suite driver: list, describe and run the named scenario
// catalogue (or an ad-hoc spec given on the command line) in process.
//
//   $ pamr_scenarios --list
//   $ pamr_scenarios --describe hotspot_storm
//   $ pamr_scenarios --run fig7a_small,fig7b_mixed --trials 300 --csv
//   $ pamr_scenarios --run all --json
//   $ pamr_scenarios --spec "mesh=8x8 model=discrete ; kind=uniform n=40
//         lo=100 hi=1500 envelope=ramp:0.5:2" --trials 100
//
// The paper's Figures 7-9 are the suites fig{7,8,9}{a,b,c}_*, e.g.
// `--run fig7a_small,fig7b_mixed,fig7c_big` for Figure 7. Figure suites
// default to seed 7, 8 or 9 after their figure; --seed overrides. The
// options shared with pamr_dist and their rules live in campaign_args.hpp.
#include <cstdio>
#include <exception>

#include "campaign_args.hpp"
#include "pamr/dist/protocol.hpp"
#include "pamr/util/string_util.hpp"

int main(int argc, char** argv) {
  using namespace pamr;
  using scenario::Scenario;
  using scenario::ScenarioRegistry;

  ArgParser parser("pamr_scenarios", "list, describe and run workload scenarios");
  parser.add_flag("list", "enumerate the named scenarios and exit");
  parser.add_string("describe", "", "print a scenario's point specs and exit");
  CampaignArgs campaign(parser, "pamr_scenarios");
  parser.add_int("threads", 0, "worker threads; 0 follows PAMR_THREADS/hardware");
  parser.add_flag("csv", "also write CSV files to PAMR_OUT_DIR");
  parser.add_flag("json", "also write a JSON file per scenario to PAMR_OUT_DIR");
  parser.add_string("stream", "",
                    "append a CSV progress row per completed work unit to this path");
  int exit_code = 0;
  if (!parser.parse(argc, argv, exit_code)) return exit_code;

  const ScenarioRegistry& registry = ScenarioRegistry::builtin();

  if (parser.get_flag("list")) {
    Table table({"name", "points", "description"});
    for (const Scenario& scenario : registry.scenarios()) {
      table.add_row({scenario.name, static_cast<std::int64_t>(scenario.points.size()),
                     scenario.description});
    }
    std::printf("%s", table.to_text().c_str());
    return 0;
  }

  if (const std::string& name = parser.get_string("describe"); !name.empty()) {
    const Scenario* scenario = registry.find(name);
    if (scenario == nullptr) {
      std::fprintf(stderr, "%s\n", registry.unknown_name_message(name).c_str());
      return 2;
    }
    std::printf("%s — %s\n", scenario->name.c_str(), scenario->description.c_str());
    for (const auto& point : scenario->points) {
      std::printf("  %s=%s  %s\n", scenario->x_label.c_str(),
                  format_compact(point.x).c_str(), point.spec.to_string().c_str());
    }
    return 0;
  }

  if (!campaign.resolve()) return 2;
  const std::int64_t threads = parser.get_int("threads");
  if (threads < 0 || threads > 4096) {
    std::fprintf(stderr, "--threads must be in [0, 4096], got %lld\n",
                 static_cast<long long>(threads));
    return 2;
  }
  scenario::SuiteOptions options;
  options.instances = campaign.instances();
  options.threads = static_cast<std::size_t>(threads);
  const std::vector<scenario::SuiteEntry>& entries = campaign.entries();

  CsvStreamWriter stream;
  scenario::UnitSink sink;
  if (const std::string& path = parser.get_string("stream"); !path.empty()) {
    if (!stream.open(path, scenario::stream_csv_header())) return 2;
    sink = [&entries, &stream](const scenario::SuiteUnit& unit,
                               const exp::PointAggregate& partial) {
      const Scenario& scenario = *entries[unit.scenario_index].scenario;
      (void)stream.append_row(scenario::stream_csv_row(
          scenario.name, scenario.points[unit.point_index].x, unit, partial));
    };
  }

  // Whether one name, a comma list, 'all' or an ad-hoc --spec: the batch
  // runs as ONE flattened work list (SuiteRunner::run_all), so short
  // scenarios don't serialize behind long ones — each result still matches
  // a standalone run of that scenario bit-for-bit.
  try {
    const std::vector<scenario::ScenarioResult> results =
        scenario::SuiteRunner(options).run_all(entries, sink);
    for (const scenario::ScenarioResult& result : results) {
      scenario::print_scenario_result(result, options.instances);
      (void)scenario::write_scenario_outputs(result, output_directory(),
                                             parser.get_flag("csv"),
                                             parser.get_flag("json"));
    }
  } catch (const std::exception& e) {
    // PAMR_CHECK failures surface as std::logic_error; anything the
    // parser's validation did not anticipate still exits with a diagnostic.
    std::fprintf(stderr, "error running '%s': %s\n", campaign.label().c_str(), e.what());
    return 2;
  }
  const bool written = campaign.write_telemetry([&] {
    return dist::build_campaign_plan(entries, options.instances, options.chunk).fingerprint;
  });
  return written ? 0 : 1;
}
