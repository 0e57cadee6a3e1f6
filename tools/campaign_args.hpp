// The command-line front end both campaign drivers share: pamr_scenarios
// runs registry suites in process, pamr_dist runs them sharded over worker
// processes. Both read --run, --spec, --trials, --seed, --trace-out and
// --metrics-out through this one class, so one set of rules holds for both:
//
//   - --run and --spec are mutually exclusive; giving neither prints the
//     help text;
//   - --trials is in [1, 10000000];
//   - --seed is >= 0, or -1 for each scenario's default;
//   - an unknown suite name or a malformed --spec is rejected.
//
// Every violation prints its reason and makes the driver exit 2. A driver
// registers its own options around the constructor, calls resolve() after
// ArgParser::parse and runs entries(); write_telemetry() writes the report
// and trace at the end.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "pamr/obs/obs.hpp"
#include "pamr/scenario/suite_runner.hpp"
#include "pamr/util/args.hpp"

namespace pamr {

class CampaignArgs {
 public:
  /// Registers the shared options on `parser`; `program` names the driver in
  /// the trace, the report and telemetry error messages.
  CampaignArgs(ArgParser& parser, std::string program)
      : parser_(parser), program_(std::move(program)) {
    parser.add_string("run", "", "comma-separated scenario names, or 'all'");
    parser.add_string("spec", "",
                      "run one ad-hoc scenario spec (see scenario_spec.hpp) instead "
                      "of --run");
    parser.add_int("trials", scenario::SuiteOptions{}.instances, "instances per point",
                   "PAMR_TRIALS");
    parser.add_int("seed", -1, "base seed; -1 uses each scenario's default");
    parser.add_string("trace-out", "",
                      "write a Chrome trace-event JSON of the run to this path");
    parser.add_string("metrics-out", "",
                      "write a JSON telemetry report (counters, phases) to this path");
  }
  CampaignArgs(const CampaignArgs&) = delete;  // entries() may point at adhoc_
  CampaignArgs& operator=(const CampaignArgs&) = delete;

  /// Applies the rules above to the parsed options, arms telemetry when a
  /// --trace-out or --metrics-out path is given (before any routing work, so
  /// phase timers cover the whole run) and resolves the suite entries.
  /// Returns false after printing the reason; the driver then exits 2.
  [[nodiscard]] bool resolve() {
    const std::string& names = run_names();
    const std::string& text = spec_text();
    if (names.empty() == text.empty()) {  // neither or both
      if (names.empty()) {
        std::fputs(parser_.help_text().c_str(), stdout);
      } else {
        std::fprintf(stderr, "--run and --spec are mutually exclusive\n");
      }
      return false;
    }
    const std::int64_t trials = parser_.get_int("trials");
    if (trials < 1 || trials > 10'000'000) {
      std::fprintf(stderr, "--trials must be in [1, 10000000], got %lld\n",
                   static_cast<long long>(trials));
      return false;
    }
    instances_ = static_cast<std::int32_t>(trials);
    if (seed() < -1) {
      std::fprintf(stderr,
                   "--seed must be >= 0, or -1 for each scenario's default, got %lld\n",
                   static_cast<long long>(seed()));
      return false;
    }

    // pamr_dist's coordinator exports the enablement to its worker
    // processes through the environment.
    if (!trace_out().empty() || !metrics_out().empty()) {
      obs::set_enabled(true);
      if (!trace_out().empty()) {
        obs::set_trace_enabled(true);
        obs::set_process_label(0, program_);
      }
    }

    if (text.empty()) {
      std::string error;
      if (!scenario::resolve_suite_entries(scenario::ScenarioRegistry::builtin(), names,
                                           seed(), entries_, error)) {
        std::fprintf(stderr, "%s (try pamr_scenarios --list)\n", error.c_str());
        return false;
      }
      return true;
    }
    scenario::ScenarioSpec spec;
    std::string error;
    if (!scenario::ScenarioSpec::parse(text, spec, error)) {
      std::fprintf(stderr, "bad --spec: %s\n", error.c_str());
      return false;
    }
    adhoc_ = scenario::adhoc_scenario(std::move(spec));
    entries_.push_back(
        {&adhoc_, seed() >= 0 ? static_cast<std::uint64_t>(seed()) : adhoc_.default_seed});
    return true;
  }

  /// The resolved batch; valid after resolve() returned true.
  [[nodiscard]] const std::vector<scenario::SuiteEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::int32_t instances() const noexcept { return instances_; }
  [[nodiscard]] std::int64_t seed() const { return parser_.get_int("seed"); }
  [[nodiscard]] const std::string& run_names() const { return parser_.get_string("run"); }
  [[nodiscard]] const std::string& spec_text() const { return parser_.get_string("spec"); }
  /// What the campaign runs, for error messages: the --run list or "adhoc".
  [[nodiscard]] const std::string& label() const {
    return spec_text().empty() ? run_names() : adhoc_.name;
  }

  /// Writes the --metrics-out report and the --trace-out trace, when asked
  /// for. `fingerprint` is called only for the report; both drivers hand it
  /// pamr_dist's campaign fingerprint, so a report from either names the
  /// same (entries, trials, chunk) expansion. Returns false after printing
  /// what failed.
  [[nodiscard]] bool write_telemetry(const std::function<std::string()>& fingerprint) const {
    bool ok = true;
    std::string error;
    if (!metrics_out().empty()) {
      if (!obs::write_report(metrics_out(), program_, fingerprint(), error)) {
        std::fprintf(stderr, "%s: --metrics-out %s: %s\n", program_.c_str(),
                     metrics_out().c_str(), error.c_str());
        ok = false;
      }
    }
    if (!trace_out().empty() && !obs::write_trace(trace_out(), error)) {
      std::fprintf(stderr, "%s: --trace-out %s: %s\n", program_.c_str(),
                   trace_out().c_str(), error.c_str());
      ok = false;
    }
    return ok;
  }

 private:
  [[nodiscard]] const std::string& trace_out() const {
    return parser_.get_string("trace-out");
  }
  [[nodiscard]] const std::string& metrics_out() const {
    return parser_.get_string("metrics-out");
  }

  const ArgParser& parser_;
  std::string program_;
  std::int32_t instances_ = 0;
  scenario::Scenario adhoc_;  // the --spec scenario; entries_ points into it
  std::vector<scenario::SuiteEntry> entries_;
};

}  // namespace pamr
