// Frequency-mode ablation — §6's modelling decision, measured.
//
// "Note that the heuristics presented in the previous section work with
//  both continuous frequencies and discrete frequencies" (§6). This bench
// routes the same instances under (a) the discrete Kim–Horowitz table and
// (b) an idealized continuous-frequency link with the same Pleak/P0/α, and
// reports, per policy: the success rates (identical by construction — the
// capacity is the same 3.5 Gb/s either way) and the mean quantization
// penalty P_discrete / P_continuous of the discrete routing re-evaluated
// continuously (how much power rounding up to {1, 2.5, 3.5} Gb/s costs),
// plus the penalty of the *best achievable* continuous routing.
#include <cstdio>

#include "pamr/comm/generator.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/util/args.hpp"
#include "pamr/util/csv.hpp"
#include "pamr/util/stats.hpp"

int main(int argc, char** argv) {
  using namespace pamr;
  ArgParser parser("ablation_frequency", "discrete vs continuous link frequencies");
  parser.add_int("trials", 200, "instances per workload", "PAMR_TRIALS");
  parser.add_int("seed", 2500, "base seed");
  int exit_code = 0;
  if (!parser.parse(argc, argv, exit_code) ||
      !parser.require_in("trials", 1, 10'000'000, exit_code)) {
    return exit_code;
  }
  const auto trials = static_cast<std::int32_t>(parser.get_int("trials"));
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));

  const Mesh mesh(8, 8);
  const PowerModel discrete = PowerModel::paper_discrete();
  PowerParams continuous_params;  // same constants, no table
  const PowerModel continuous(continuous_params);

  struct Workload {
    const char* name;
    std::int32_t num_comms;
    double lo, hi;
  };
  for (const Workload& workload :
       {Workload{"30 x U[100,1500)", 30, 100.0, 1500.0},
        Workload{"15 x U[100,2500)", 15, 100.0, 2500.0}}) {
    Table table({"policy", "success (discrete)", "success (continuous)",
                 "quantization penalty", "continuous-routing gain"});
    table.set_double_precision(3);
    for (const RouterKind kind :
         {RouterKind::kXY, RouterKind::kXYI, RouterKind::kPR, RouterKind::kBest}) {
      const auto router = make_router(kind);
      std::int32_t ok_discrete = 0;
      std::int32_t ok_continuous = 0;
      RunningStats penalty;       // P_disc(routing_disc) / P_cont(routing_disc)
      RunningStats routing_gain;  // P_cont(routing_disc) / P_cont(routing_cont)
      for (std::int32_t trial = 0; trial < trials; ++trial) {
        Rng rng(derive_seed(seed, static_cast<std::uint64_t>(workload.num_comms),
                            static_cast<std::uint64_t>(trial)));
        UniformWorkload spec;
        spec.num_comms = workload.num_comms;
        spec.weight_lo = workload.lo;
        spec.weight_hi = workload.hi;
        const CommSet comms = generate_uniform(mesh, spec, rng);

        const RouteResult disc = router->route(mesh, comms, discrete);
        const RouteResult cont = router->route(mesh, comms, continuous);
        if (disc.valid) ++ok_discrete;
        if (cont.valid) ++ok_continuous;
        if (disc.valid && cont.valid) {
          const LinkLoads disc_loads = loads_of_routing(mesh, *disc.routing);
          const auto disc_under_cont = continuous.total_power(disc_loads.values());
          if (disc_under_cont.has_value() && *disc_under_cont > 0.0) {
            penalty.add(disc.power / *disc_under_cont);
            routing_gain.add(*disc_under_cont / cont.power);
          }
        }
      }
      table.add_row({std::string{to_cstring(kind)},
                     static_cast<double>(ok_discrete) / trials,
                     static_cast<double>(ok_continuous) / trials, penalty.mean(),
                     routing_gain.mean()});
    }
    std::printf(
        "== frequency-mode ablation, %s (%d trials) ==\n%s"
        "'quantization penalty': power paid for rounding link frequencies up\n"
        "to {1, 2.5, 3.5} Gb/s. 'continuous-routing gain': how much better the\n"
        "policy routes when it optimizes against the smooth curve (≥ 1).\n\n",
        workload.name, trials, table.to_text().c_str());
  }
  return 0;
}
