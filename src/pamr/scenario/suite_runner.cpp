#include "pamr/scenario/suite_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>

#include "pamr/obs/obs.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/log.hpp"
#include "pamr/util/string_util.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {
namespace scenario {

void SuiteOptions::validate() const {
  if (instances <= 0) {
    throw std::invalid_argument("SuiteOptions.instances must be >= 1, got " +
                                std::to_string(instances));
  }
  if (instances > 10'000'000) {
    throw std::invalid_argument("SuiteOptions.instances must be <= 10000000, got " +
                                std::to_string(instances));
  }
  if (chunk == 0) {
    throw std::invalid_argument("SuiteOptions.chunk must be >= 1, got 0");
  }
  if (threads > 4096) {
    throw std::invalid_argument("SuiteOptions.threads must be <= 4096, got " +
                                std::to_string(threads));
  }
}

Scenario adhoc_scenario(ScenarioSpec spec) {
  Scenario scenario;
  scenario.name = "adhoc";
  scenario.description = "ad-hoc spec from the command line";
  scenario.points.push_back({0.0, std::move(spec)});
  return scenario;
}

exp::PointAggregate run_scenario_point(const Mesh& mesh, const PowerModel& model,
                                       const ScenarioSpec& spec, std::int32_t instances,
                                       std::uint64_t seed, std::uint64_t point_id,
                                       ThreadPool* pool, std::size_t chunk) {
  PAMR_CHECK(instances >= 1, "need at least one instance");
  PAMR_CHECK(chunk >= 1, "chunk must be positive");
  const auto count = static_cast<std::size_t>(instances);
  const std::size_t chunks = (count + chunk - 1) / chunk;
  std::vector<exp::PointAggregate> partials(chunks);
  ThreadPool& run_pool = pool != nullptr ? *pool : ThreadPool::global();
  run_pool.parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    partials[c] = run_unit_instances(mesh, model, spec, begin,
                                     std::min(begin + chunk, count), count, seed,
                                     point_id);
  });
  exp::PointAggregate out;
  for (const exp::PointAggregate& partial : partials) out.merge(partial);
  return out;
}

SuiteRunner::SuiteRunner(SuiteOptions options) : options_(options) {
  options_.validate();
}

ScenarioResult SuiteRunner::run(const Scenario& scenario) const {
  return std::move(run_all({SuiteEntry{&scenario, options_.seed}}).front());
}

std::vector<ScenarioResult> SuiteRunner::run_all(const std::vector<SuiteEntry>& entries,
                                                 const UnitSink& sink) const {
  options_.validate();
  const obs::PhaseScope suite_phase(obs::Metric::kPhaseSuite);
  const WallTimer timer;

  // Per-point materialized state (mesh + model are built once, not per
  // chunk), flattened scenario-major like the unit list.
  struct PointJob {
    Mesh mesh;
    PowerModel model;
    const ScenarioSpec* spec;
  };
  std::vector<PointJob> jobs;
  std::vector<std::size_t> first_job;  // entries index -> jobs offset
  first_job.reserve(entries.size());
  for (const SuiteEntry& entry : entries) {
    PAMR_CHECK(entry.scenario != nullptr, "null scenario in suite batch");
    first_job.push_back(jobs.size());
    for (const ScenarioPoint& point : entry.scenario->points) {
      jobs.push_back(
          PointJob{point.spec.make_mesh(), point.spec.make_model(), &point.spec});
    }
  }

  const std::vector<SuiteUnit> units =
      enumerate_suite_units(entries, options_.instances, options_.chunk);
  const auto count = static_cast<std::size_t>(options_.instances);

  std::unique_ptr<ThreadPool> own_pool;
  if (options_.threads != 0) own_pool = std::make_unique<ThreadPool>(options_.threads);
  ThreadPool& pool = own_pool != nullptr ? *own_pool : ThreadPool::global();

  std::vector<exp::PointAggregate> partials(units.size());
  pool.parallel_for(units.size(), [&](std::size_t u) {
    const SuiteUnit& unit = units[u];
    const PointJob& job = jobs[first_job[unit.scenario_index] + unit.point_index];
    // Scenario → point → unit context spans; run_unit_instances adds
    // phase.unit and the routing spans beneath them.
    std::optional<obs::Span> unit_span;
    if (obs::trace_enabled()) {
      const Scenario& scenario = *entries[unit.scenario_index].scenario;
      unit_span.emplace(
          "unit " + scenario.name + "[" + std::to_string(unit.point_index) + "]",
          "{\"scenario\":\"" + json_escape(scenario.name) +
              "\",\"point\":" + std::to_string(unit.point_index) +
              ",\"x\":" + format_compact(scenario.points[unit.point_index].x) +
              ",\"begin\":" + std::to_string(unit.begin) +
              ",\"end\":" + std::to_string(unit.end) + "}");
    }
    partials[u] = run_unit_instances(job.mesh, job.model, *job.spec, unit.begin,
                                     unit.end, count, entries[unit.scenario_index].seed,
                                     unit.point_index);
    if (sink) sink(unit, partials[u]);
  });

  std::vector<ScenarioResult> results = fold_suite_units(entries, units, partials);
  const double elapsed = timer.elapsed_seconds();
  for (ScenarioResult& result : results) result.elapsed_seconds = elapsed;
  return results;
}

std::vector<ScenarioResult> fold_suite_units(
    const std::vector<SuiteEntry>& entries, const std::vector<SuiteUnit>& units,
    const std::vector<exp::PointAggregate>& partials) {
  PAMR_CHECK(units.size() == partials.size(), "one partial per unit required");
  std::vector<ScenarioResult> results(entries.size());
  for (std::size_t s = 0; s < entries.size(); ++s) {
    const Scenario& scenario = *entries[s].scenario;
    results[s].name = scenario.name;
    results[s].x_label = scenario.x_label;
    results[s].points.resize(scenario.points.size());
    for (std::size_t p = 0; p < scenario.points.size(); ++p) {
      results[s].points[p].x = scenario.points[p].x;
    }
  }
  // Canonical unit order: scenario-major, point-major, chunk-major, so each
  // point's chunks merge contiguously and in order.
  for (std::size_t u = 0; u < units.size(); ++u) {
    results[units[u].scenario_index]
        .points[units[u].point_index]
        .aggregate.merge(partials[u]);
  }
  return results;
}

// ---------------------------------------------------------------- tables --

namespace {

/// `extract` maps (aggregate, series) to the cell value.
using SeriesExtractor = double (*)(const exp::PointAggregate&, std::size_t);

Table result_table(const ScenarioResult& result, SeriesExtractor extract) {
  std::vector<std::string> header{result.x_label};
  for (std::size_t s = 0; s < exp::kNumSeries; ++s) {
    header.emplace_back(exp::series_name(s));
  }
  Table table(std::move(header));
  for (const ScenarioPointResult& point : result.points) {
    std::vector<Cell> row;
    row.emplace_back(point.x);
    for (std::size_t s = 0; s < exp::kNumSeries; ++s) {
      row.emplace_back(extract(point.aggregate, s));
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace

Table normalized_inverse_table(const ScenarioResult& result) {
  return result_table(result, [](const exp::PointAggregate& point, std::size_t s) {
    return point.normalized_inverse[s].mean();
  });
}

Table failure_ratio_table(const ScenarioResult& result) {
  return result_table(result, [](const exp::PointAggregate& point, std::size_t s) {
    return point.failure_ratio(s);
  });
}

bool has_sim_stats(const ScenarioResult& result) {
  for (const ScenarioPointResult& point : result.points) {
    if (point.aggregate.sim_delivery.count() > 0) return true;
  }
  return false;
}

Table sim_table(const ScenarioResult& result) {
  Table table({result.x_label, "simulated", "latency_cycles", "delivery_ratio",
               "throughput_mbps"});
  for (const ScenarioPointResult& point : result.points) {
    const exp::PointAggregate& aggregate = point.aggregate;
    table.add_row({point.x,
                   static_cast<std::int64_t>(aggregate.sim_delivery.count()),
                   aggregate.sim_latency.mean(), aggregate.sim_delivery.mean(),
                   aggregate.sim_throughput.mean()});
  }
  return table;
}

std::string result_to_json(const ScenarioResult& result) {
  std::string out = "{\n\"scenario\": \"" + json_escape(result.name) + "\",\n";
  out += "\"normalized_inverse_power\": " + normalized_inverse_table(result).to_json();
  out += ",\n\"failure_ratio\": " + failure_ratio_table(result).to_json();
  if (has_sim_stats(result)) {
    out += ",\n\"sim\": " + sim_table(result).to_json();
  }
  out += "}\n";
  return out;
}

std::vector<std::string> stream_csv_header() {
  std::vector<std::string> header{"scenario", "point", "x", "begin", "to"};
  for (std::size_t s = 0; s < exp::kNumSeries; ++s) {
    header.emplace_back(exp::series_name(s));
  }
  return header;
}

std::vector<Cell> stream_csv_row(const std::string& scenario, double x,
                                 const SuiteUnit& unit,
                                 const exp::PointAggregate& partial) {
  std::vector<Cell> row{scenario, static_cast<std::int64_t>(unit.point_index), x,
                        static_cast<std::int64_t>(unit.begin),
                        static_cast<std::int64_t>(unit.end)};
  for (std::size_t s = 0; s < exp::kNumSeries; ++s) {
    row.emplace_back(partial.normalized_inverse[s].mean());
  }
  return row;
}

void print_scenario_result(const ScenarioResult& result, std::int32_t instances) {
  std::printf("== %s (%d instances/point, %.1fs) ==\n", result.name.c_str(), instances,
              result.elapsed_seconds);
  std::printf("-- normalized power inverse (1/P over 1/P_BEST; 0 = failure) --\n%s",
              normalized_inverse_table(result).to_text().c_str());
  std::printf("-- failure ratio --\n%s\n", failure_ratio_table(result).to_text().c_str());
  if (has_sim_stats(result)) {
    std::printf("-- open-loop injection (BEST routing, cycle-level sim) --\n%s\n",
                sim_table(result).to_text().c_str());
  }
}

bool write_scenario_outputs(const ScenarioResult& result, const std::string& dir,
                            bool write_csv, bool write_json) {
  const std::string base = dir + "/" + result.name;
  bool ok = true;
  if (write_csv) {
    ok &= normalized_inverse_table(result).write_csv(base + "_norm_inv_power.csv");
    ok &= failure_ratio_table(result).write_csv(base + "_failure_ratio.csv");
    if (has_sim_stats(result)) {
      ok &= sim_table(result).write_csv(base + "_sim.csv");
    }
    if (ok) PAMR_LOG_INFO("wrote " + base + "_{norm_inv_power,failure_ratio}.csv");
  }
  if (write_json) {
    std::ofstream file(base + ".json");
    if (file) {
      file << result_to_json(result);
      PAMR_LOG_INFO("wrote " + base + ".json");
    } else {
      PAMR_LOG_WARN("cannot open '" + base + ".json' for writing");
      ok = false;
    }
  }
  return ok;
}

void run_and_report(const Scenario& scenario, const SuiteOptions& options,
                    bool write_csv, bool write_json) {
  const ScenarioResult result = SuiteRunner(options).run(scenario);
  print_scenario_result(result, options.instances);
  (void)write_scenario_outputs(result, output_directory(), write_csv, write_json);
}

}  // namespace scenario
}  // namespace pamr
