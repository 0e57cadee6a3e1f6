#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>

#include "pamr/dist/coordinator.hpp"
#include "pamr/util/thread_pool.hpp"
#include "pamr/util/timer.hpp"

namespace perfbench {

namespace {

namespace sc = pamr::scenario;

// Why each workload exists is recorded in perfbench/README.md. The sizes
// put one round at a fraction of a second to two seconds.
const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> table = {
      {"paper8", {"fig7a_small", "fig7b_mixed"}, 16, false},
      {"sim_probe", {"injection_sweep"}, 32, false},
      {"campaign_mix",
       {"fig8a_few_10comms", "fig8b_some_20comms", "permutations", "trace_replay",
        "hotspot_storm", "multi_app_mix"},
       16,
       true},
  };
  return table;
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) out += (out.empty() ? "" : ",") + part;
  return out;
}

std::vector<sc::SuiteEntry> resolve_entries(const WorkloadDef& def, std::uint64_t seed) {
  std::vector<sc::SuiteEntry> entries;
  std::string error;
  if (!sc::resolve_suite_entries(sc::ScenarioRegistry::builtin(), join(def.scenarios),
                                 static_cast<std::int64_t>(seed), entries, error)) {
    throw std::runtime_error(error);
  }
  return entries;
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& def : workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

std::string workload_names() {
  std::vector<std::string> names;
  for (const WorkloadDef& def : workloads()) names.push_back(def.name);
  return join(names);
}

Layout default_layout() {
  std::size_t cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 1;
  Layout layout;
  layout.threads = std::min<std::size_t>(4, cores);
  // The coordinator is a process too: coordinator + workers <= cores.
  layout.workers = std::max<std::size_t>(1, std::min<std::size_t>(3, cores - 1));
  return layout;
}

Campaign::Campaign(const WorkloadDef& def, std::uint64_t seed)
    : def_(&def), seed_(seed), entries_(resolve_entries(def, seed)) {
  plan_ = pamr::dist::build_campaign_plan(entries_, def.instances, kChunk);
}

std::size_t Campaign::instances() const noexcept {
  std::size_t points = 0;
  for (const sc::SuiteEntry& entry : entries_) points += entry.scenario->points.size();
  return points * static_cast<std::size_t>(def_->instances);
}

std::map<std::string, std::size_t> Campaign::units_by_scenario() const {
  std::map<std::string, std::size_t> units;
  for (const pamr::dist::WorkUnit& unit : plan_.units) ++units[unit.scenario];
  return units;
}

RunLedger::RunLedger(const Campaign& campaign, std::string measured_dir)
    : campaign_(&campaign), measured_dir_(std::move(measured_dir)) {}

void RunLedger::account(const RoundResult& round) {
  std::size_t failed = round.failed_units;
  std::string error = round.error;
  if (!round.results.empty() && !have_reference_) {
    reference_ = result_files(round.results);
    have_reference_ = true;
    std::string broken;
    failed += invariant_failures(*campaign_, round.results, broken);
    if (error.empty()) error = broken;
    if (!write_results(round.results, measured_dir_) && error.empty()) {
      error = "cannot write " + measured_dir_;
    }
  } else if (!round.results.empty() && result_files(round.results) != reference_) {
    failed = campaign_->units();
    if (error.empty()) error = "a round did not reproduce the reference results";
  }
  record(campaign_->units(), std::min(failed, campaign_->units()), error);
}

void RunLedger::record(std::size_t attempted, std::size_t failed, const std::string& error) {
  attempted_ += attempted;
  failed_ += failed;
  if (error_.empty()) error_ = error;
}

RoundResult run_round(const Campaign& campaign, const Layout& layout, bool distributed,
                      const std::string& exe, const std::string& journal_dir) {
  RoundResult out;
  const double cpu_before = cpu_seconds();
  const pamr::WallTimer timer;
  try {
    if (distributed) {
      std::filesystem::remove_all(journal_dir);
      pamr::dist::CoordinatorOptions options;
      options.workers = layout.workers;
      options.worker_exe = exe;
      options.out_dir = journal_dir;
      pamr::dist::CampaignOutcome outcome =
          pamr::dist::run_campaign(campaign.plan(), options);
      // Every unexpected worker death requeued the unit it held.
      out.failed_units = outcome.worker_failures;
      if (outcome.worker_failures > 0) out.error = "a worker died; its unit was requeued";
      if (outcome.complete) {
        out.results = std::move(outcome.results);
      } else {
        out.failed_units = campaign.units();
        out.error = "campaign incomplete";
      }
    } else {
      sc::SuiteOptions options;
      options.instances = campaign.def().instances;
      options.seed = campaign.seed();
      options.threads = layout.threads;
      options.chunk = kChunk;
      out.results = sc::SuiteRunner(options).run_all(campaign.entries());
    }
  } catch (const std::exception& e) {
    out.results.clear();
    out.failed_units = campaign.units();
    out.error = e.what();
  }
  out.wall_s = timer.elapsed_seconds();
  out.cpu_s = cpu_seconds() - cpu_before;
  return out;
}

double setup_once(const WorkloadDef& def, std::uint64_t seed, const Layout& layout,
                  const std::string& exe, const std::string& journal_dir) {
  std::filesystem::remove_all(journal_dir);
  const pamr::WallTimer timer;
  const std::vector<sc::SuiteEntry> entries = resolve_entries(def, seed);
  if (def.distributed) {
    const pamr::dist::CampaignPlan plan =
        pamr::dist::build_campaign_plan(entries, def.instances, kChunk);
    if (plan.units.empty()) throw std::runtime_error("empty campaign plan");
    start_workers(entries, layout, exe, journal_dir);
  } else {
    std::vector<std::pair<pamr::Mesh, pamr::PowerModel>> points;
    for (const sc::SuiteEntry& entry : entries) {
      for (const sc::ScenarioPoint& point : entry.scenario->points) {
        points.emplace_back(point.spec.make_mesh(), point.spec.make_model());
      }
    }
    const std::vector<sc::SuiteUnit> units =
        sc::enumerate_suite_units(entries, def.instances, kChunk);
    if (units.empty()) throw std::runtime_error("no work units");
    const pamr::ThreadPool pool(layout.threads);
  }
  return timer.elapsed_seconds();
}

void start_workers(const std::vector<sc::SuiteEntry>& entries, const Layout& layout,
                   const std::string& exe, const std::string& journal_dir) {
  sc::Scenario warmup = *entries.front().scenario;
  warmup.points.resize(1);
  warmup.points.front().spec.sim = false;
  const pamr::dist::CampaignPlan plan = pamr::dist::build_campaign_plan(
      {{&warmup, entries.front().seed}}, static_cast<std::int32_t>(layout.workers), 1);
  pamr::dist::CoordinatorOptions options;
  options.workers = layout.workers;
  options.worker_exe = exe;
  options.out_dir = journal_dir;
  const pamr::dist::CampaignOutcome outcome = pamr::dist::run_campaign(plan, options);
  if (!outcome.complete || outcome.worker_failures > 0) {
    throw std::runtime_error("the warm-up campaign did not complete cleanly");
  }
}

std::map<std::string, std::string> result_files(const std::vector<ScenarioResult>& results) {
  std::map<std::string, std::string> files;
  for (const ScenarioResult& result : results) {
    files[result.name + "_norm_inv_power.csv"] =
        sc::normalized_inverse_table(result).to_csv();
    files[result.name + "_failure_ratio.csv"] = sc::failure_ratio_table(result).to_csv();
    if (sc::has_sim_stats(result)) {
      files[result.name + "_sim.csv"] = sc::sim_table(result).to_csv();
    }
    files[result.name + ".json"] = sc::result_to_json(result);
  }
  return files;
}

bool write_results(const std::vector<ScenarioResult>& results, const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  bool ok = true;
  for (const ScenarioResult& result : results) {
    ok &= sc::write_scenario_outputs(result, dir, /*write_csv=*/true, /*write_json=*/true);
  }
  return ok;
}

std::size_t invariant_failures(const Campaign& campaign,
                               const std::vector<ScenarioResult>& results,
                               std::string& error) {
  using pamr::exp::kBestSeries;
  using pamr::exp::kNumSeries;
  const std::size_t per_point =
      (static_cast<std::size_t>(campaign.def().instances) + kChunk - 1) / kChunk;
  if (results.size() != campaign.entries().size()) {
    error = "result count differs from the suite";
    return campaign.units();
  }
  std::size_t failed = 0;
  for (std::size_t s = 0; s < results.size(); ++s) {
    const sc::Scenario& scenario = *campaign.entries()[s].scenario;
    for (std::size_t p = 0; p < results[s].points.size(); ++p) {
      const pamr::exp::PointAggregate& point = results[s].points[p].aggregate;
      std::string broken;
      if (point.instances != static_cast<std::size_t>(campaign.def().instances)) {
        broken = "instance count";
      }
      for (std::size_t series = 0; series < kNumSeries; ++series) {
        const double mean = point.normalized_inverse[series].mean();
        const double ratio = point.failure_ratio(series);
        if (!(mean >= 0.0 && mean <= 1.0)) broken = "normalized inverse outside [0, 1]";
        if (!(ratio >= 0.0 && ratio <= 1.0)) broken = "failure ratio outside [0, 1]";
        if (series != kBestSeries && point.failures[kBestSeries] > point.failures[series]) {
          broken = "BEST fails more often than a policy";
        }
      }
      const double best_mean = point.normalized_inverse[kBestSeries].mean();
      if (std::fabs(best_mean - (1.0 - point.failure_ratio(kBestSeries))) > 1e-9) {
        broken = "BEST mean differs from its success ratio";
      }
      // Delivery counts flits ejected after warm-up against flits offered
      // after it, so flits in flight at the boundary may push it a little
      // above 1.
      if (scenario.points[p].spec.sim && point.sim_delivery.count() > 0) {
        const double delivery = point.sim_delivery.mean();
        if (!(delivery >= 0.0 && delivery <= 1.05)) broken = "sim delivery outside [0, 1.05]";
      }
      if (!broken.empty()) {
        failed += per_point;
        if (error.empty()) {
          error = scenario.name + " point " + std::to_string(p) + ": " + broken;
        }
      }
    }
  }
  return failed;
}

double cpu_seconds() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return seconds_of(self.ru_utime) + seconds_of(self.ru_stime) +
         seconds_of(children.ru_utime) + seconds_of(children.ru_stime);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

}  // namespace perfbench
