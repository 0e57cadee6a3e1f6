// Named scenario catalogue.
//
// A Scenario is a sweep: an ordered list of (x, ScenarioSpec) points that
// the SuiteRunner executes with many instances each — one paper figure
// panel, one ablation, or one structured stress suite per entry. The
// built-in registry is the single source of truth for the §6 figure
// parameters plus the structured suites the paper never drew: permutation sweeps, hotspot
// storms, intensity ramps and multi-application mixes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pamr/scenario/scenario_spec.hpp"

namespace pamr {
namespace scenario {

struct ScenarioPoint {
  double x = 0.0;  ///< abscissa of the sweep (nc, weight, length, …)
  ScenarioSpec spec;
};

struct Scenario {
  std::string name;         ///< registry key, e.g. "fig7a_small"
  std::string description;  ///< one line for --list
  std::string x_label = "x";
  std::uint64_t default_seed = 0x9e3779b9ULL;  ///< figure suites pin 7, 8 or 9
  std::vector<ScenarioPoint> points;
};

class ScenarioRegistry {
 public:
  /// The built-in catalogue (immutable, constructed on first use).
  [[nodiscard]] static const ScenarioRegistry& builtin();

  /// Registration order is listing order. CHECKs name uniqueness.
  void add(Scenario scenario);

  [[nodiscard]] const Scenario* find(std::string_view name) const noexcept;

  /// find() that CHECKs the name exists — for callers holding a name that
  /// is supposed to be in the catalogue (benches, examples).
  [[nodiscard]] const Scenario& at(std::string_view name) const;

  /// Diagnostic for a failed lookup: "unknown scenario '<name>'", any
  /// near-miss suggestions (edit distance / prefix), and the full
  /// catalogue — every name-resolution error path (CLIs, at()) shares it,
  /// so a typo is always answered with what the user probably meant.
  [[nodiscard]] std::string unknown_name_message(std::string_view name) const;
  [[nodiscard]] const std::vector<Scenario>& scenarios() const noexcept {
    return scenarios_;
  }

 private:
  std::vector<Scenario> scenarios_;
};

}  // namespace scenario
}  // namespace pamr
