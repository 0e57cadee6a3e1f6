#include "pamr/exp/instance_runner.hpp"

#include <utility>

#include "pamr/obs/obs.hpp"
#include "pamr/routing/infeasibility.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/sim/sim_stats.hpp"
#include "pamr/topo/topo_router.hpp"

namespace pamr {
namespace exp {

namespace {

SimSample probe_with_simulator(const Mesh& mesh, const CommSet& comms,
                               const Routing& routing, const sim::SimConfig& config) {
  obs::bump(obs::Metric::kSimProbes);
  const obs::PhaseScope phase(obs::Metric::kPhaseSim);
  const sim::SimStats stats = sim::simulate(mesh, comms, routing, config);
  SimSample sample;
  sample.ran = true;
  sample.delivery = stats.delivery_ratio();
  double latency_sum = 0.0;
  std::int64_t delivered = 0;
  for (std::size_t flow = 0; flow < stats.per_subflow.size(); ++flow) {
    latency_sum += stats.per_subflow[flow].latency_sum;
    delivered += stats.per_subflow[flow].delivered_flits;
    sample.throughput_mbps += stats.delivered_mbps(flow);
  }
  sample.latency_cycles =
      delivered > 0 ? latency_sum / static_cast<double>(delivered) : 0.0;
  return sample;
}

}  // namespace

InstanceSample run_instance(const Mesh& mesh, const CommSet& comms,
                            const PowerModel& model, const sim::SimConfig* sim_config) {
  std::array<HeuristicSample, kNumBaseRouters> base;
  // Malformed input throws here, as it would in the first Router::route.
  check_comm_set(mesh, comms);
  bool certified = false;
  {
    const obs::PhaseScope phase(obs::Metric::kPhaseCertificate);
    certified = no_feasible_manhattan_routing(mesh, comms, model);
  }
  if (certified) {
    obs::bump(obs::Metric::kRouteCertifiedInfeasible);
#if PAMR_CHECK_LEVEL >= 2
    for (const RouterKind kind : all_base_routers()) {
      PAMR_INVARIANT("infeasibility-certificate",
                     !make_router(kind)->route(mesh, comms, model).valid,
                     "a policy routed an instance certified infeasible");
    }
#endif
    // Every policy would fail: six invalid samples, no simulation probe.
    InstanceSample sample = make_instance_sample(base);
    sample.certified = true;
    return sample;
  }
  // The BEST routing (lowest power among valid policies) doubles as the
  // simulation probe's subject, so keep it while the scalars are folded.
  Routing best_routing;
  bool have_best = false;
  double best_power = 0.0;
  // The sample reads only validity, power and a valid routing, so each
  // policy may stop at its first certain overload (RouteGoal::kVerdict).
  const auto kinds = all_base_routers();
  for (std::size_t h = 0; h < kinds.size(); ++h) {
    const auto router = make_router(kinds[h]);
    RouteResult result = router->route(mesh, comms, model, RouteGoal::kVerdict);
#if PAMR_CHECK_LEVEL >= 2
    if (!result.routing.has_value()) {
      PAMR_INVARIANT("fail-fast", !result.valid && !router->route(mesh, comms, model).valid,
                     "a policy stopped early on an instance its complete routing fits");
    }
#endif
    base[h].valid = result.valid;
    base[h].power = result.power;
    base[h].static_power = result.breakdown.static_part;
    base[h].elapsed_ms = result.elapsed_ms;
    if (sim_config != nullptr && result.valid && result.routing.has_value() &&
        (!have_best || result.power < best_power)) {
      best_routing = *std::move(result.routing);
      best_power = result.power;
      have_best = true;
    }
  }
  InstanceSample sample = make_instance_sample(base);
  if (sim_config != nullptr && have_best && !comms.empty()) {
    sample.sim = probe_with_simulator(mesh, comms, best_routing, *sim_config);
  }
  return sample;
}

InstanceSample run_instance(const topo::Topology& topology, const CommSet& comms,
                            const PowerModel& model) {
  std::array<HeuristicSample, kNumBaseRouters> base;
  const auto kinds = all_base_routers();
  for (std::size_t h = 0; h < kinds.size(); ++h) {
    const RouteResult result = topo::route_on(topology, kinds[h], comms, model);
    base[h].valid = result.valid;
    base[h].power = result.power;
    base[h].static_power = result.breakdown.static_part;
    base[h].elapsed_ms = result.elapsed_ms;
  }
  return make_instance_sample(base);
}

}  // namespace exp
}  // namespace pamr
