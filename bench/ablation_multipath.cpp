// Ablation / future-work bench: how much does multi-path routing buy?
//
// The paper's conclusion asks for (i) bounds on the optimal solution and
// (ii) multi-path heuristics. This bench quantifies both on the §6 setup:
// for random instances it sweeps the split factor s of the greedy s-MP
// splitter, compares against BEST (single-path) and the Frank–Wolfe
// continuous bound, and reports success rates and mean power normalized to
// the FW dynamic-power bound.
#include <cstdio>
#include <vector>

#include "pamr/comm/generator.hpp"
#include "pamr/opt/frank_wolfe.hpp"
#include "pamr/opt/split_router.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/util/args.hpp"
#include "pamr/util/csv.hpp"
#include "pamr/util/stats.hpp"

int main(int argc, char** argv) {
  using namespace pamr;
  ArgParser parser("ablation_multipath",
                   "split-factor sweep vs single-path BEST and the FW bound");
  parser.add_int("trials", 200, "instances per workload", "PAMR_TRIALS");
  parser.add_int("seed", 1337, "base seed");
  int exit_code = 0;
  if (!parser.parse(argc, argv, exit_code)) return exit_code;
  const auto trials = static_cast<std::int32_t>(parser.get_int("trials"));
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));

  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  const std::vector<std::int32_t> split_factors{1, 2, 3, 4, 8};

  struct Workload {
    const char* name;
    std::int32_t num_comms;
    double lo, hi;
  };
  const std::vector<Workload> workloads{
      {"30 x U[100,1500)", 30, 100.0, 1500.0},
      {"20 x U[100,2500)", 20, 100.0, 2500.0},
      {"10 x U[2500,3500)", 10, 2500.0, 3500.0},
  };

  for (const Workload& workload : workloads) {
    Table table({"policy", "success rate", "mean power / FW bound (valid)",
                 "mean power (mW, valid)"});
    table.set_double_precision(3);

    // One accumulator per split factor + one for BEST.
    std::vector<RunningStats> power(split_factors.size() + 1);
    std::vector<RunningStats> vs_bound(split_factors.size() + 1);
    std::vector<std::int32_t> success(split_factors.size() + 1, 0);

    for (std::int32_t trial = 0; trial < trials; ++trial) {
      Rng rng(derive_seed(seed, static_cast<std::uint64_t>(workload.num_comms),
                          static_cast<std::uint64_t>(trial)));
      UniformWorkload spec;
      spec.num_comms = workload.num_comms;
      spec.weight_lo = workload.lo;
      spec.weight_hi = workload.hi;
      const CommSet comms = generate_uniform(mesh, spec, rng);

      FrankWolfeOptions fw_options;
      fw_options.max_iterations = 60;
      const double bound = solve_max_mp(mesh, comms, model, fw_options).lower_bound;

      const RouteResult best = BestRouter().route(mesh, comms, model);
      if (best.valid) {
        ++success[0];
        power[0].add(best.power);
        if (bound > 0.0) vs_bound[0].add(best.power / bound);
      }
      for (std::size_t si = 0; si < split_factors.size(); ++si) {
        const SplitRouteResult split =
            route_split(mesh, comms, model, split_factors[si]);
        if (split.valid) {
          ++success[si + 1];
          power[si + 1].add(split.power);
          if (bound > 0.0) vs_bound[si + 1].add(split.power / bound);
        }
      }
    }

    auto add_row = [&](const std::string& name, std::size_t index) {
      table.add_row({name, static_cast<double>(success[index]) / trials,
                     vs_bound[index].mean(), power[index].mean()});
    };
    add_row("BEST (1-MP portfolio)", 0);
    for (std::size_t si = 0; si < split_factors.size(); ++si) {
      add_row("s-MP splitter, s=" + std::to_string(split_factors[si]), si + 1);
    }
    std::printf("== multi-path ablation, workload %s (%d trials) ==\n%s\n",
                workload.name, trials, table.to_text().c_str());
  }
  std::printf(
      "notes: 'FW bound' is the Frank-Wolfe lower bound on dynamic power of any\n"
      "max-MP routing (leakage excluded), so ratios include the static share and\n"
      "sit above 1 even at the optimum. s=1 is the DP-based single-path greedy.\n");
  return 0;
}
