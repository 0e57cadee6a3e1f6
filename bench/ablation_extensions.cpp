// Extension-router ablation: how much headroom is left above the paper's
// BEST portfolio? Compares BEST against the negotiated rip-up-and-reroute
// router (RR) and simulated annealing (SA), with the exact 1-MP optimum on
// instances small enough to enumerate. (Paper conclusion: "we would like to
// establish a bound on the optimal solution … so that we could give an
// insight on the absolute performance of our heuristics".)
#include <cstdio>

#include "pamr/comm/generator.hpp"
#include "pamr/opt/exact_solver.hpp"
#include "pamr/routing/extensions.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/util/args.hpp"
#include "pamr/util/csv.hpp"
#include "pamr/util/stats.hpp"

int main(int argc, char** argv) {
  using namespace pamr;
  ArgParser parser("ablation_extensions", "BEST vs RR/SA vs exact optimum");
  parser.add_int("trials", 150, "instances per workload", "PAMR_TRIALS");
  parser.add_int("seed", 909, "base seed");
  int exit_code = 0;
  if (!parser.parse(argc, argv, exit_code) ||
      !parser.require_in("trials", 1, 10'000'000, exit_code)) {
    return exit_code;
  }
  const auto trials = static_cast<std::int32_t>(parser.get_int("trials"));
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));

  const PowerModel model = PowerModel::paper_discrete();

  // Part 1: 8×8, §6-style workloads — success rate and mean power vs BEST.
  {
    const Mesh mesh(8, 8);
    struct Policy {
      const char* name;
      std::unique_ptr<Router> router;
    };
    std::vector<Policy> policies;
    policies.push_back({"BEST", make_router(RouterKind::kBest)});
    policies.push_back({"RR", std::make_unique<RipUpRerouteRouter>()});
    policies.push_back({"SA", std::make_unique<AnnealingRouter>()});

    Table table({"policy", "success rate", "mean power vs BEST (both valid)",
                 "mean time (ms)"});
    table.set_double_precision(3);
    std::vector<std::int32_t> success(policies.size(), 0);
    std::vector<RunningStats> vs_best(policies.size());
    std::vector<RunningStats> elapsed(policies.size());
    for (std::int32_t trial = 0; trial < trials; ++trial) {
      Rng rng(derive_seed(seed, 1, static_cast<std::uint64_t>(trial)));
      UniformWorkload spec;
      spec.num_comms = 50;
      spec.weight_lo = 100.0;
      spec.weight_hi = 1500.0;
      const CommSet comms = generate_uniform(mesh, spec, rng);
      std::vector<RouteResult> results;
      results.reserve(policies.size());
      for (const auto& policy : policies) {
        results.push_back(policy.router->route(mesh, comms, model));
      }
      for (std::size_t p = 0; p < policies.size(); ++p) {
        elapsed[p].add(results[p].elapsed_ms);
        if (!results[p].valid) continue;
        ++success[p];
        if (results[0].valid) vs_best[p].add(results[p].power / results[0].power);
      }
    }
    for (std::size_t p = 0; p < policies.size(); ++p) {
      table.add_row({std::string{policies[p].name},
                     static_cast<double>(success[p]) / trials, vs_best[p].mean(),
                     elapsed[p].mean()});
    }
    std::printf("== extensions on 8x8, 50 x U[100,1500) (%d trials) ==\n%s\n",
                trials, table.to_text().c_str());
  }

  // Part 2: 4×4 instances small enough for the exact solver — optimality
  // gaps of BEST, RR and SA.
  {
    const Mesh mesh(4, 4);
    RunningStats gap_best;
    RunningStats gap_rr;
    RunningStats gap_sa;
    std::int32_t exact_feasible = 0;
    const std::int32_t small_trials = std::min<std::int32_t>(trials, 60);
    for (std::int32_t trial = 0; trial < small_trials; ++trial) {
      Rng rng(derive_seed(seed, 2, static_cast<std::uint64_t>(trial)));
      UniformWorkload spec;
      spec.num_comms = 6;
      spec.weight_lo = 500.0;
      spec.weight_hi = 2500.0;
      const CommSet comms = generate_uniform(mesh, spec, rng);
      const ExactResult exact = solve_exact_1mp(mesh, comms, model);
      if (!exact.complete || !exact.routing.has_value()) continue;
      ++exact_feasible;
      const auto record = [&](const RouteResult& result, RunningStats& gap) {
        if (result.valid) gap.add(result.power / exact.power);
      };
      record(BestRouter().route(mesh, comms, model), gap_best);
      record(RipUpRerouteRouter().route(mesh, comms, model), gap_rr);
      record(AnnealingRouter().route(mesh, comms, model), gap_sa);
    }
    Table table({"policy", "mean power / exact optimum", "max"});
    table.set_double_precision(4);
    table.add_row({std::string{"BEST"}, gap_best.mean(), gap_best.max()});
    table.add_row({std::string{"RR"}, gap_rr.mean(), gap_rr.max()});
    table.add_row({std::string{"SA"}, gap_sa.mean(), gap_sa.max()});
    std::printf(
        "== optimality gap on 4x4, 6 x U[500,2500) (%d feasible instances) ==\n%s\n",
        exact_feasible, table.to_text().c_str());
  }
  return 0;
}
