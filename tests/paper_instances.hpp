// Three §6 instances from the paper's 8×8 regime, drawn exactly as the
// suite runner draws them (derive_seed(default_seed, point, instance)):
// fig7a_small point 13 (140 communications), fig7b_mixed point 5 and
// fig7a_small point 3. The allocation-budget test and the routing pins
// share them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pamr/scenario/registry.hpp"
#include "pamr/util/rng.hpp"

namespace pamr {
namespace paper {

struct Instance {
  std::string label;
  Mesh mesh;
  PowerModel model;
  CommSet comms;
};

inline std::vector<Instance> instances() {
  struct Point {
    const char* scenario;
    std::size_t point;
    std::uint64_t instance;
  };
  constexpr Point kPoints[] = {
      {"fig7a_small", 13, 0}, {"fig7b_mixed", 5, 0}, {"fig7a_small", 3, 0}};
  std::vector<Instance> out;
  for (const Point& at : kPoints) {
    const scenario::Scenario& suite = scenario::ScenarioRegistry::builtin().at(at.scenario);
    const scenario::ScenarioSpec& spec = suite.points.at(at.point).spec;
    const Mesh mesh = spec.make_mesh();
    const PowerModel model = spec.make_model();
    Rng rng(derive_seed(suite.default_seed, at.point, at.instance));
    CommSet comms = spec.generate(mesh, model, 0.0, rng);
    out.push_back({std::string(at.scenario) + " point=" + std::to_string(at.point) +
                       " instance=" + std::to_string(at.instance),
                   mesh, model, std::move(comms)});
  }
  return out;
}

}  // namespace paper
}  // namespace pamr
