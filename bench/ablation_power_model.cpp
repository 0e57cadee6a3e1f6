// Power-model sensitivity ablation — §6.4's closing remark, measured:
//
//   "These fractions obviously depend upon the absolute values of the
//    parameters … For instance a lower value of the ratio Pleak/P0 would
//    favor PR over other heuristics."
//
// Sweep 1: Pleak scaled ×{0, 0.25, 1, 4, 16} around the Kim–Horowitz value;
// report per-policy mean normalized inverse power and the static fraction.
// PR spreads traffic over many links, so it shines when leakage is cheap
// and loses ground as idle links become expensive.
//
// Sweep 2: the dynamic exponent α ∈ {2.0, 2.5, 2.95, 3.0} — the convexity
// that drives every load-balancing argument in §4.
#include <cstdio>

#include "pamr/scenario/suite_runner.hpp"
#include "pamr/util/args.hpp"
#include "pamr/util/csv.hpp"

int main(int argc, char** argv) {
  using namespace pamr;
  ArgParser parser("ablation_power_model", "Pleak and alpha sensitivity (§6.4)");
  parser.add_int("trials", 200, "instances per configuration", "PAMR_TRIALS");
  parser.add_int("seed", 4096, "base seed");
  int exit_code = 0;
  if (!parser.parse(argc, argv, exit_code)) return exit_code;

  const Mesh mesh(8, 8);
  const auto trials = static_cast<std::int32_t>(parser.get_int("trials"));
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));

  scenario::ScenarioSpec spec;  // the paper's 8×8 platform, one flat layer
  scenario::WorkloadLayer& layer = spec.layers.emplace_back();
  layer.kind = scenario::WorkloadLayer::Kind::kUniform;
  layer.num_comms = 40;
  layer.weight_lo = 100.0;
  layer.weight_hi = 1500.0;

  {
    Table table({"Pleak (mW)", "XY", "SG", "IG", "TB", "XYI", "PR", "BEST",
                 "static fraction"});
    table.set_double_precision(3);
    std::uint64_t point_id = 0;
    for (const double scale : {0.0, 0.25, 1.0, 4.0, 16.0}) {
      PowerParams params;  // Kim–Horowitz defaults
      params.p_leak *= scale;
      const PowerModel model(params, FrequencyTable::kim_horowitz());
      const exp::PointAggregate agg =
          scenario::run_scenario_point(mesh, model, spec, trials, seed, point_id++);
      std::vector<Cell> row{params.p_leak};
      for (std::size_t s = 0; s < exp::kNumSeries; ++s) {
        row.emplace_back(agg.normalized_inverse[s].mean());
      }
      row.emplace_back(agg.static_fraction.mean());
      table.add_row(std::move(row));
    }
    std::printf(
        "== Pleak sweep (40 x U[100,1500) Mb/s, %d trials/row) ==\n"
        "normalized power inverse per policy; expect PR to lead at low Pleak\n"
        "and concentrating policies (XYI) to close the gap as Pleak grows\n%s\n",
        trials, table.to_text().c_str());
  }

  {
    Table table({"alpha", "XY", "SG", "IG", "TB", "XYI", "PR", "BEST",
                 "BEST power (inv mean x1e3)"});
    table.set_double_precision(3);
    std::uint64_t point_id = 100;
    for (const double alpha : {2.0, 2.5, 2.95, 3.0}) {
      PowerParams params;
      params.alpha = alpha;
      const PowerModel model(params, FrequencyTable::kim_horowitz());
      const exp::PointAggregate agg =
          scenario::run_scenario_point(mesh, model, spec, trials, seed, point_id++);
      std::vector<Cell> row{alpha};
      for (std::size_t s = 0; s < exp::kNumSeries; ++s) {
        row.emplace_back(agg.normalized_inverse[s].mean());
      }
      row.emplace_back(agg.inverse_power[exp::kBestSeries].mean() * 1e3);
      table.add_row(std::move(row));
    }
    std::printf(
        "== alpha sweep (same workload) ==\n"
        "higher alpha -> stronger convexity -> larger gap between XY and the\n"
        "load-balancing policies\n%s\n",
        table.to_text().c_str());
  }
  return 0;
}
