// Perf-trajectory exporter: times the micro_heuristics matrix with plain
// wall clocks and dumps one JSON document, so every PR can regenerate a
// comparable baseline. BENCH_2.json in the repo root was recorded when the
// incremental PR removal loop landed; BENCH_4.json added the XYI/BEST rows
// at 16×16/32×32 unlocked by the incremental XYI local search; BENCH_6.json
// added the topology column and the 16×16 torus rows routed through the
// topo:: analogues; BENCH_10.json re-baselines after the hot-path round
// and adds --filter so CI can time a single point (schema pamr-bench/4).
// Rows with "valid": false, "power": 0 are model-infeasible points (the
// workload's loads exceed the max link frequency) — expected outcomes, not
// failures. The whole-program baseline, with noise bands and the paper
// regime's workloads, is perfbench/ (see perfbench/README.md); this matrix
// times single router calls.
//
//   $ pamr_bench_export --out BENCH_10.json [--reps 5] [--quick]
//                       [--filter route32/XYI/2000]
//
// The mesh matrix comes from pamr/bench/heuristics_matrix.hpp — the same
// meshes, comm counts, router sets and generator stream as
// bench/micro_heuristics — so google-benchmark numbers and this export
// are directly comparable; the torus rows reuse the identical 16×16
// workloads (the generator draws on the grid, independent of topology).
// Per point the median of --reps runs is reported (medians are robust
// against scheduler noise on shared CI runners). --quick drops the 32×32
// points for sub-second smoke runs; --filter keeps only the points whose
// bench name ("prefix/ROUTER/nc") contains the given substring.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "pamr/bench/heuristics_matrix.hpp"
#include "pamr/topo/topo_router.hpp"
#include "pamr/topo/topologies.hpp"
#include "pamr/util/args.hpp"
#include "pamr/util/timer.hpp"

namespace {

using namespace pamr;

std::string json_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_row(const std::string& bench, std::int32_t p, std::int32_t q,
                     std::int32_t nc, RouterKind kind, const char* topo,
                     const std::vector<double>& sorted_times_ms,
                     const RouteResult& result) {
  return "    {\"bench\": \"" + bench + "\", \"mesh\": \"" + std::to_string(p) +
         "x" + std::to_string(q) + "\", \"topo\": \"" + topo +
         "\", \"nc\": " + std::to_string(nc) + ", \"router\": \"" +
         to_cstring(kind) +
         "\", \"median_ms\": " + json_double(sorted_times_ms[sorted_times_ms.size() / 2]) +
         ", \"min_ms\": " + json_double(sorted_times_ms.front()) +
         ", \"valid\": " + (result.valid ? "true" : "false") +
         ", \"power\": " + json_double(result.valid ? result.power : 0.0) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("pamr_bench_export",
                   "time the micro_heuristics matrix and export JSON");
  parser.add_string("out", "BENCH_10.json", "output path ('-' for stdout)");
  parser.add_int("reps", 5, "timed repetitions per point (median reported)");
  parser.add_flag("quick", "skip the 32x32 points");
  parser.add_string("filter", "",
                    "only time points whose bench name contains this substring");
  int exit_code = 0;
  if (!parser.parse(argc, argv, exit_code)) return exit_code;

  const auto reps = static_cast<std::size_t>(std::max<std::int64_t>(
      1, parser.get_int("reps")));
  const bool quick = parser.get_flag("quick");
  const std::string& filter = parser.get_string("filter");
  const auto matches = [&filter](const std::string& bench) {
    return filter.empty() || bench.find(filter) != std::string::npos;
  };
  const PowerModel model = PowerModel::paper_discrete();

  std::vector<std::string> rows;
  for (const bench::MeshCase& mesh_case : bench::heuristics_matrix()) {
    if (quick && std::strcmp(mesh_case.prefix, "route32") == 0) continue;
    const Mesh mesh(mesh_case.p, mesh_case.q);
    for (const RouterKind kind : mesh_case.kinds) {
      const auto router = make_router(kind);
      for (const std::int32_t nc : mesh_case.num_comms) {
        const std::string bench = std::string(mesh_case.prefix) + "/" +
                                  to_cstring(kind) + "/" + std::to_string(nc);
        if (!matches(bench)) continue;
        const CommSet comms = bench::heuristics_workload(mesh, nc);

        RouteResult result = router->route(mesh, comms, model);  // warm-up
        std::vector<double> times_ms;
        times_ms.reserve(reps);
        for (std::size_t rep = 0; rep < reps; ++rep) {
          const WallTimer timer;
          result = router->route(mesh, comms, model);
          times_ms.push_back(timer.elapsed_ms());
        }
        std::sort(times_ms.begin(), times_ms.end());

        rows.push_back(json_row(bench, mesh_case.p, mesh_case.q, nc, kind,
                                "rect", times_ms, result));
        std::fprintf(stderr, "%-7s %5dx%-5d nc=%-5d %8.3f ms\n",
                     to_cstring(kind), mesh_case.p, mesh_case.q, nc,
                     times_ms[times_ms.size() / 2]);
      }
    }
  }

  // The topology analogues on the 16×16 torus, same workloads as route16.
  {
    const Mesh mesh(16, 16);
    const auto topology = topo::make_topology(topo::TopoKind::kTorus, 16, 16);
    constexpr RouterKind kTorusKinds[] = {
        RouterKind::kXY,  RouterKind::kSG, RouterKind::kIG,  RouterKind::kTB,
        RouterKind::kXYI, RouterKind::kPR, RouterKind::kBest};
    for (const RouterKind kind : kTorusKinds) {
      for (const std::int32_t nc : {100, 500}) {
        const std::string bench =
            "torus16/" + std::string(to_cstring(kind)) + "/" + std::to_string(nc);
        if (!matches(bench)) continue;
        const CommSet comms = bench::heuristics_workload(mesh, nc);

        RouteResult result = topo::route_on(*topology, kind, comms, model);
        std::vector<double> times_ms;
        times_ms.reserve(reps);
        for (std::size_t rep = 0; rep < reps; ++rep) {
          const WallTimer timer;
          result = topo::route_on(*topology, kind, comms, model);
          times_ms.push_back(timer.elapsed_ms());
        }
        std::sort(times_ms.begin(), times_ms.end());

        rows.push_back(
            json_row(bench, 16, 16, nc, kind, "torus", times_ms, result));
        std::fprintf(stderr, "%-7s torus 16x16 nc=%-5d %8.3f ms\n",
                     to_cstring(kind), nc, times_ms[times_ms.size() / 2]);
      }
    }
  }

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"pamr-bench/4\",\n";
  if (!filter.empty()) {
    json += "  \"filter\": \"" + filter + "\",\n";
  }
  json += "  \"generator\": {\"seed\": " + std::to_string(bench::kWorkloadSeed) +
          ", \"weight_lo\": " + json_double(bench::kWeightLo) +
          ", \"weight_hi\": " + json_double(bench::kWeightHi) + "},\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json += rows[i] + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json += "  ]\n}\n";

  const std::string& out = parser.get_string("out");
  if (out == "-") {
    std::printf("%s", json.c_str());
    return 0;
  }
  std::ofstream file(out);
  if (!file) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", out.c_str());
    return 1;
  }
  file << json;
  std::fprintf(stderr, "wrote %s (%zu points)\n", out.c_str(), rows.size());
  return 0;
}
