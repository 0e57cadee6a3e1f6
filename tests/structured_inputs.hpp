// Structured communication sets for the incremental-vs-reference routing
// differentials.
//
// The uniform and overload fixtures in those suites draw random endpoints
// and weights, so exact load ties are rare. The registry's structured
// suites are the opposite: permutations put one equal-weight flow on every
// core, hotspots funnel many flows into a few links, trace replay and
// application mixes repeat the same weights across many flows. Those are
// the inputs where an inexact cache shows up as a flipped tie-break, so
// every point of each such suite contributes two instances here — one
// inside a burst envelope's peak and one outside it.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "pamr/scenario/registry.hpp"
#include "pamr/util/rng.hpp"

namespace pamr {
namespace structured {

struct Instance {
  std::string label;
  scenario::ScenarioSpec spec;
  CommSet comms;
};

/// Two instances per point of every structured suite the benchmark draws,
/// seeded like the suite runner (derive_seed(default_seed, point, instance)).
inline std::vector<Instance> instances() {
  // Registry trace paths are repo-root-relative; resolve them wherever the
  // test binary runs.
  setenv("PAMR_TRACE_DIR", PAMR_REPO_DIR, /*overwrite=*/1);
  // Envelope positions: 0.1 sits inside a 0.25-duty burst peak, 0.6 outside.
  constexpr double kPositions[] = {0.1, 0.6};
  std::vector<Instance> out;
  for (const char* name : {"hotspot_storm", "permutations", "trace_replay",
                           "multi_app_mix", "injection_sweep"}) {
    const scenario::Scenario& suite = scenario::ScenarioRegistry::builtin().at(name);
    for (std::size_t point = 0; point < suite.points.size(); ++point) {
      const scenario::ScenarioSpec& spec = suite.points[point].spec;
      const Mesh mesh = spec.make_mesh();
      const PowerModel model = spec.make_model();
      for (std::uint64_t instance = 0; instance < 2; ++instance) {
        Rng rng(derive_seed(suite.default_seed, point, instance));
        out.push_back({std::string(name) + " point=" + std::to_string(point) +
                           " instance=" + std::to_string(instance),
                       spec, spec.generate(mesh, model, kPositions[instance], rng)});
      }
    }
  }
  return out;
}

}  // namespace structured
}  // namespace pamr
