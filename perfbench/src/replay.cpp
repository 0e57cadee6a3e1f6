#include "replay.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "pamr/dist/merger.hpp"
#include "pamr/dist/shard_log.hpp"
#include "pamr/exp/instance_runner.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/routing/router.hpp"
#include "pamr/sim/simulator.hpp"
#include "pamr/util/rng.hpp"
#include "pamr/util/stats.hpp"
#include "pamr/util/timer.hpp"

namespace perfbench {

namespace {

namespace sc = pamr::scenario;
namespace obs = pamr::obs;
using pamr::kNumBaseRouters;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Time spent in one layer call site and how often it ran.
struct CallClock {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;

  void add(std::uint64_t start) {
    ns += now_ns() - start;
    ++calls;
  }
  [[nodiscard]] double us_per(double count) const {
    return ratio(static_cast<double>(ns) * 1e-3, count);
  }
  [[nodiscard]] double us_per_call() const { return us_per(static_cast<double>(calls)); }
};

struct ReplayStats {
  std::array<CallClock, kNumBaseRouters> route;
  std::uint64_t route_valid = 0;
  CallClock spec_roundtrip, generate, fold, codec, wire, journal, merge, sim;
  double sim_router_cycles = 0.0;
  double sim_flits = 0.0;
  double sim_delivery_sum = 0.0;
  CallClock run_instance_overhead;  ///< ns of run_instance outside route/sim
};

struct PointState {
  pamr::Mesh mesh;
  pamr::PowerModel model;
};

std::uint64_t route_and_sim_ns(const obs::Snapshot& snap) {
  std::uint64_t ns = snap.timer_ns(obs::Metric::kPhaseSim);
  for (const obs::Metric m : {obs::Metric::kPhaseRouteXy, obs::Metric::kPhaseRouteSg,
                              obs::Metric::kPhaseRouteIg, obs::Metric::kPhaseRouteTb,
                              obs::Metric::kPhaseRouteXyi, obs::Metric::kPhaseRoutePr}) {
    ns += snap.timer_ns(m);
  }
  return ns;
}

/// Mirrors scenario::run_unit_instances + exp::run_instance call for call,
/// so the folded aggregate is the one the suite computes.
pamr::exp::PointAggregate replay_unit(const Campaign& campaign, const sc::SuiteUnit& unit,
                                      const PointState& state, ReplayStats& stats) {
  const sc::ScenarioSpec& spec =
      campaign.entries()[unit.scenario_index].scenario->points[unit.point_index].spec;
  if (spec.topo != pamr::topo::TopoKind::kRect) {
    throw std::runtime_error("replay covers rectangular meshes only");
  }
  const auto count = static_cast<std::size_t>(campaign.def().instances);
  const std::uint64_t seed = campaign.entries()[unit.scenario_index].seed;
  const auto kinds = pamr::all_base_routers();
  pamr::exp::PointAggregate aggregate;
  for (std::size_t instance = unit.begin; instance < unit.end; ++instance) {
    pamr::Rng rng(pamr::derive_seed(seed, unit.point_index, instance));
    const double t = (static_cast<double>(instance) + 0.5) / static_cast<double>(count);
    std::uint64_t start = now_ns();
    const pamr::CommSet comms = spec.generate(state.mesh, state.model, t, rng);
    stats.generate.add(start);
    pamr::sim::SimConfig sim_config;
    if (spec.sim) {
      sim_config.cycles = spec.sim_cycles;
      sim_config.warmup = spec.sim_warmup;
      sim_config.seed = rng();
    }

    std::array<pamr::exp::HeuristicSample, kNumBaseRouters> base;
    pamr::Routing best_routing;
    bool have_best = false;
    double best_power = 0.0;
    for (std::size_t h = 0; h < kinds.size(); ++h) {
      start = now_ns();
      pamr::RouteResult result =
          pamr::make_router(kinds[h])->route(state.mesh, comms, state.model);
      stats.route[h].add(start);
      stats.route_valid += result.valid ? 1 : 0;
      base[h] = {result.valid, result.power, result.breakdown.static_part,
                 result.elapsed_ms};
      if (spec.sim && result.valid && result.routing.has_value() &&
          (!have_best || result.power < best_power)) {
        best_routing = *std::move(result.routing);
        best_power = result.power;
        have_best = true;
      }
    }

    pamr::exp::SimSample probe;
    if (spec.sim && have_best && !comms.empty()) {
      start = now_ns();
      const pamr::sim::SimStats sim_stats =
          pamr::sim::simulate(state.mesh, comms, best_routing, sim_config);
      stats.sim.add(start);
      probe.ran = true;
      probe.delivery = sim_stats.delivery_ratio();
      double latency_sum = 0.0;
      std::int64_t delivered = 0;
      for (std::size_t flow = 0; flow < sim_stats.per_subflow.size(); ++flow) {
        latency_sum += sim_stats.per_subflow[flow].latency_sum;
        delivered += sim_stats.per_subflow[flow].delivered_flits;
        probe.throughput_mbps += sim_stats.delivered_mbps(flow);
      }
      probe.latency_cycles =
          delivered > 0 ? latency_sum / static_cast<double>(delivered) : 0.0;
      stats.sim_router_cycles += static_cast<double>(sim_config.cycles) *
                                 static_cast<double>(state.mesh.num_cores());
      stats.sim_flits += static_cast<double>(delivered);
      stats.sim_delivery_sum += probe.delivery;
    }

    start = now_ns();
    pamr::exp::InstanceSample sample = pamr::exp::make_instance_sample(base);
    sample.sim = probe;
    aggregate.add(sample);
    stats.fold.add(start);
  }
  return aggregate;
}

struct Replay {
  std::vector<ScenarioResult> results;
  std::size_t failed = 0;
  std::string error;
};

/// The whole round, unit by unit in canonical order, through the worker
/// side (compute, aggregate codec), the wire in both directions, the
/// journal and the merger.
Replay replay_round(const Campaign& campaign, const std::string& journal_dir,
                    ReplayStats& stats) {
  Replay out;
  const auto fail = [&out](std::size_t units, const std::string& what) {
    out.failed += units;
    if (out.error.empty()) out.error = "replay: " + what;
  };

  std::vector<std::vector<PointState>> states;
  for (const sc::SuiteEntry& entry : campaign.entries()) {
    std::vector<PointState>& points = states.emplace_back();
    for (const sc::ScenarioPoint& point : entry.scenario->points) {
      const std::uint64_t start = now_ns();
      sc::ScenarioSpec parsed;
      std::string error;
      const bool ok = sc::ScenarioSpec::parse(point.spec.to_string(), parsed, error);
      stats.spec_roundtrip.add(start);
      if (!ok || !(parsed == point.spec)) {
        fail(0, "spec text round trip changed " + entry.scenario->name);
      }
      points.push_back({point.spec.make_mesh(), point.spec.make_model()});
    }
  }

  std::filesystem::remove_all(journal_dir);
  std::filesystem::create_directories(journal_dir);
  const pamr::dist::CampaignPlan& plan = campaign.plan();
  pamr::dist::ShardLog journal(journal_dir + "/shards.log");
  std::string error;
  if (!journal.open_append(plan.fingerprint, error)) throw std::runtime_error(error);
  pamr::dist::ResultMerger merger(plan);
  pamr::dist::MessageAssembler to_worker;
  pamr::dist::MessageAssembler to_coordinator;

  for (const pamr::dist::WorkUnit& unit : plan.units) {
    const pamr::exp::PointAggregate aggregate = replay_unit(
        campaign, unit.unit, states[unit.unit.scenario_index][unit.unit.point_index],
        stats);

    std::uint64_t start = now_ns();
    const std::string agg_text = pamr::exp::serialize_point_aggregate(aggregate);
    pamr::exp::PointAggregate decoded;
    const bool decoded_ok = pamr::exp::parse_point_aggregate(agg_text, decoded, error);
    stats.codec.add(start);
    if (!decoded_ok || pamr::exp::serialize_point_aggregate(decoded) != agg_text) {
      fail(1, "aggregate codec round trip of unit " + std::to_string(unit.id) + " " + error);
      continue;
    }

    start = now_ns();
    std::vector<pamr::dist::Message> messages;
    pamr::dist::WorkUnit unit_back;
    bool wire_ok = to_worker.feed(pamr::dist::to_wire(unit.to_message()), messages, error) &&
                   messages.size() == 1 &&
                   pamr::dist::parse_work_unit(messages.front(), unit_back, error);
    pamr::dist::UnitResult sent{unit.id, agg_text, 0.0};
    pamr::dist::UnitResult received;
    messages.clear();
    wire_ok = wire_ok &&
              to_coordinator.feed(pamr::dist::to_wire(sent.to_message()), messages,
                                  error) &&
              messages.size() == 1 &&
              pamr::dist::parse_unit_result(messages.front(), received, error);
    stats.wire.add(start);
    // The batch index stays with the coordinator; the wire does not carry it.
    unit_back.unit.scenario_index = unit.unit.scenario_index;
    if (!wire_ok || !(unit_back == unit) || received.aggregate != agg_text) {
      fail(1, "wire round trip of unit " + std::to_string(unit.id) + " " + error);
      continue;
    }

    start = now_ns();
    const bool journaled = journal.record(received.id, received.aggregate);
    stats.journal.add(start);
    if (!journaled) fail(0, "journal append failed");

    start = now_ns();
    const bool merged = merger.add(received.id, received.aggregate, error);
    stats.merge.add(start);
    if (!merged) fail(1, "merger: " + error);
  }
  if (merger.complete()) {
    const std::uint64_t start = now_ns();
    out.results = merger.merge();
    stats.merge.ns += now_ns() - start;
  } else {
    fail(0, "merger incomplete");
  }
  return out;
}

/// exp::run_instance on the first instance of up to `limit` points, minus
/// the route and sim phase time the library itself records inside it.
void sample_run_instance_overhead(const Campaign& campaign, std::size_t limit,
                                  ReplayStats& stats) {
  std::size_t sampled = 0;
  for (const sc::SuiteEntry& entry : campaign.entries()) {
    for (std::size_t p = 0; p < entry.scenario->points.size() && sampled < limit; ++p) {
      const sc::ScenarioSpec& spec = entry.scenario->points[p].spec;
      const pamr::Mesh mesh = spec.make_mesh();
      const pamr::PowerModel model = spec.make_model();
      pamr::Rng rng(pamr::derive_seed(entry.seed, p, 0));
      const double t = 0.5 / static_cast<double>(campaign.def().instances);
      const pamr::CommSet comms = spec.generate(mesh, model, t, rng);
      pamr::sim::SimConfig sim_config;
      sim_config.cycles = spec.sim_cycles;
      sim_config.warmup = spec.sim_warmup;
      sim_config.seed = rng();
      const obs::Snapshot before = obs::snapshot();
      const std::uint64_t start = now_ns();
      (void)pamr::exp::run_instance(mesh, comms, model, spec.sim ? &sim_config : nullptr);
      const std::uint64_t wall = now_ns() - start;
      const std::uint64_t inner = route_and_sim_ns(obs::snapshot()) - route_and_sim_ns(before);
      stats.run_instance_overhead.ns += wall > inner ? wall - inner : 0;
      ++stats.run_instance_overhead.calls;
      ++sampled;
    }
  }
}

}  // namespace

TracedRun run_traced(const Campaign& campaign, const Layout& layout,
                     const std::string& exe, double seconds, const std::string& out_dir,
                     RunLedger& ledger) {
  TracedRun run;
  const bool distributed = campaign.def().distributed;
  const std::size_t slots = distributed ? layout.workers : layout.threads;
  const std::size_t units = campaign.units();

  // Untraced and traced rounds alternate until `seconds` have passed, so
  // the overhead ratio and CPU utilisation are medians over pairs.
  std::vector<double> overhead;
  std::vector<double> cpu_util;
  std::uint64_t requeued = 0;
  const pamr::WallTimer pairs;
  for (int pair = 0; pair == 0 || pairs.elapsed_seconds() < seconds; ++pair) {
    const RoundResult plain =
        run_round(campaign, layout, distributed, exe, out_dir + "/round");
    ledger.account(plain);

    obs::reset();
    obs::set_enabled(true);
    obs::set_trace_enabled(true);
    const RoundResult traced =
        run_round(campaign, layout, distributed, exe, out_dir + "/round");
    requeued += obs::snapshot().counter(obs::Metric::kDistUnitsRequeued);
    obs::set_trace_enabled(false);
    obs::set_enabled(false);
    // run_campaign exported the telemetry gates to its workers' environment.
    unsetenv("PAMR_OBS");
    unsetenv("PAMR_OBS_TRACE");
    std::string error;
    if (pair == 0 && obs::compiled_in() &&
        !obs::write_trace(out_dir + "/trace.json", error)) {
      ledger.record(0, 0, "trace: " + error);
    }
    obs::clear_trace();
    ledger.account(traced);
    if (pair == 0 && !write_results(traced.results, out_dir + "/traced")) {
      ledger.record(0, 0, "cannot write traced results");
    }
    run.rounds += 2;
    overhead.push_back(ratio(traced.wall_s, plain.wall_s));
    cpu_util.push_back(ratio(plain.cpu_s, static_cast<double>(slots) * plain.wall_s));
  }

  obs::reset();
  obs::set_enabled(true);
  ReplayStats stats;
  Replay replay;
  try {
    replay = replay_round(campaign, out_dir + "/journal", stats);
  } catch (const std::exception& e) {
    replay.failed = units;
    replay.error = std::string("replay: ") + e.what();
  }
  const obs::Snapshot counts = obs::snapshot();
  ledger.record(units, std::min(replay.failed, units), replay.error);
  if (!write_results(replay.results, out_dir + "/replay")) {
    ledger.record(0, 0, "cannot write replay results");
  }
  sample_run_instance_overhead(campaign, 32, stats);
  obs::set_enabled(false);

  std::vector<double> spawn_ms;
  for (int rep = 0; rep < 5; ++rep) {
    std::filesystem::remove_all(out_dir + "/warmup");
    const pamr::WallTimer timer;
    start_workers(campaign.entries(), layout, exe, out_dir + "/warmup");
    spawn_ms.push_back(timer.elapsed_seconds() * 1e3);
  }
  std::filesystem::remove_all(out_dir + "/warmup");

  const auto counter = [&counts](obs::Metric m) {
    return static_cast<double>(counts.counter(m));
  };
  const double instances = static_cast<double>(campaign.instances());
  const double units_d = static_cast<double>(units);
  const auto calls = [&stats](pamr::RouterKind kind) {
    return static_cast<double>(stats.route[static_cast<std::size_t>(kind)].calls);
  };
  std::vector<Metric>& m = run.metrics;
  double route_calls = 0.0;
  for (const pamr::RouterKind kind : pamr::all_base_routers()) {
    m.push_back({std::string("routing.") + pamr::to_cstring(kind) + ".us_per_call",
                 stats.route[static_cast<std::size_t>(kind)].us_per_call(), "us"});
    route_calls += calls(kind);
  }
  const double xyi_hits = counter(obs::Metric::kXyiEvalHits);
  m.push_back({"routing.xyi.moves_per_call",
               ratio(counter(obs::Metric::kXyiMoves), calls(pamr::RouterKind::kXYI)), "count"});
  m.push_back({"routing.xyi.memo_hit_ratio",
               ratio(xyi_hits, xyi_hits + counter(obs::Metric::kXyiEvalMisses)), "ratio"});
  m.push_back({"routing.pr.removals_per_call",
               ratio(counter(obs::Metric::kPrRemovals), calls(pamr::RouterKind::kPR)), "count"});
  m.push_back({"routing.ig.cut_bounds_per_call",
               ratio(counter(obs::Metric::kIgCutBounds), calls(pamr::RouterKind::kIG)),
               "count"});
  m.push_back({"routing.valid_ratio",
               ratio(static_cast<double>(stats.route_valid), route_calls), "ratio"});

  const double sim_s = static_cast<double>(stats.sim.ns) * 1e-9;
  const double probes = static_cast<double>(stats.sim.calls);
  m.push_back({"sim.ms_per_probe", ratio(sim_s * 1e3, probes), "ms"});
  m.push_back({"sim.router_cycles_per_s", ratio(stats.sim_router_cycles, sim_s), "1/s"});
  m.push_back({"sim.flits_delivered_per_s", ratio(stats.sim_flits, sim_s), "1/s"});
  m.push_back({"sim.delivery_ratio", ratio(stats.sim_delivery_sum, probes), "ratio"});

  m.push_back({"scenario.spec_roundtrip_us", stats.spec_roundtrip.us_per_call(), "us"});
  m.push_back({"scenario.generate_us_per_instance", stats.generate.us_per(instances), "us"});
  m.push_back({"scenario.units", units_d, "count"});
  m.push_back({"exp.fold_us_per_instance", stats.fold.us_per(instances), "us"});
  m.push_back({"exp.aggregate_codec_us_per_unit", stats.codec.us_per(units_d), "us"});
  m.push_back({"exp.run_instance_overhead_us", stats.run_instance_overhead.us_per_call(),
               "us"});

  m.push_back({"suite.cpu_util", pamr::median_of(cpu_util), "ratio"});
  m.push_back({"suite.units_per_thread", units_d / static_cast<double>(slots), "count"});

  m.push_back({"dist.wire_us_per_unit", stats.wire.us_per(units_d), "us"});
  m.push_back({"dist.journal_us_per_record", stats.journal.us_per_call(), "us"});
  m.push_back({"dist.merge_us_per_unit", stats.merge.us_per(units_d), "us"});
  m.push_back({"dist.worker_spawn_ms", pamr::median_of(spawn_ms), "ms"});
  m.push_back({"dist.units_requeued", static_cast<double>(requeued), "count"});
  m.push_back({"obs.trace_overhead_ratio", pamr::median_of(overhead), "ratio"});
  return run;
}

}  // namespace perfbench
