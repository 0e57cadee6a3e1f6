// Wire protocol of the distributed suite runner.
//
// A campaign is planned once: the whole suite batch — every (scenario,
// point, instance-chunk) triple — flattens into one canonical WorkUnit list
// (scenario/work_list.hpp enumeration, unit id == list index). Coordinator
// and workers then exchange line-delimited key=value messages over pipes:
//
//   unit                         result                    error
//   id=17                        id=17                     text=<reason>
//   scenario=fig7a_small         elapsed_ms=12.5           end
//   point=2                      agg=aggv=2 n=8 ...
//   begin=16                     end
//   to=24
//   instances=300
//   seed=7
//   spec=mesh=8x8 model=... ; kind=uniform n=40 ...
//   end
//
// A message is its type line, any number of key=value lines (values may
// themselves contain '=' and ';' — ScenarioSpec and aggregate wire forms
// ride through verbatim), and a literal "end" line. Units are
// self-contained: a worker re-parses the spec text and never consults the
// scenario registry, so coordinator and worker agree on the workload by
// construction, not by build-order luck.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pamr/scenario/work_list.hpp"

namespace pamr {
namespace dist {

struct Message {
  std::string type;
  std::vector<std::pair<std::string, std::string>> fields;

  /// First value for `key`, or nullptr.
  [[nodiscard]] const std::string* find(std::string_view key) const noexcept;
};

/// Serializes to the framed text form (asserts keys/values are line-clean).
[[nodiscard]] std::string to_wire(const Message& message);

/// Blocking read of one message (the worker side; stdin is a pipe).
/// Returns false on clean EOF (`error` empty) or malformed framing
/// (`error` set).
[[nodiscard]] bool read_message(std::FILE* in, Message& out, std::string& error);

/// Incremental reassembly for the coordinator's poll loop: feed whatever
/// bytes arrived, collect every message completed by them.
class MessageAssembler {
 public:
  [[nodiscard]] bool feed(std::string_view bytes, std::vector<Message>& out,
                          std::string& error);

 private:
  std::string partial_;  ///< carry of an unterminated line
  Message current_;
  bool in_message_ = false;
};

// -- Typed messages ---------------------------------------------------------

/// One distributable unit: instances [unit.begin, unit.end) of one point.
struct WorkUnit {
  std::uint64_t id = 0;  ///< index into the canonical campaign unit list
  std::string scenario;  ///< registry name (outputs, logs, stream rows)
  scenario::SuiteUnit unit;
  std::size_t instances = 0;  ///< instances per point (the envelope divisor)
  std::uint64_t seed = 0;     ///< the owning scenario's base seed
  std::string spec;           ///< ScenarioSpec::to_string() of the point

  [[nodiscard]] Message to_message() const;

  friend bool operator==(const WorkUnit&, const WorkUnit&) = default;
};

[[nodiscard]] bool parse_work_unit(const Message& message, WorkUnit& out,
                                   std::string& error);

struct UnitResult {
  std::uint64_t id = 0;
  std::string aggregate;    ///< exp::serialize_point_aggregate line
  double elapsed_ms = 0.0;  ///< wall time; informational only, never merged

  [[nodiscard]] Message to_message() const;
};

[[nodiscard]] bool parse_unit_result(const Message& message, UnitResult& out,
                                     std::string& error);

[[nodiscard]] Message make_quit();
[[nodiscard]] Message make_error(std::string_view text);

// -- Campaign plan ----------------------------------------------------------

/// The deterministic expansion of a suite batch. Built identically from the
/// same (entries, instances, chunk) on every run, which is what lets an
/// interrupted campaign resume: the fingerprint — a stable hash over every
/// unit's defining fields — is stored in the shard journal and must match
/// before journaled results are trusted.
struct CampaignPlan {
  std::vector<scenario::SuiteEntry> entries;
  std::int32_t instances = 0;
  std::size_t chunk = 0;
  std::vector<WorkUnit> units;  ///< unit id == vector index
  std::string fingerprint;      ///< 16 hex digits
};

[[nodiscard]] CampaignPlan build_campaign_plan(std::vector<scenario::SuiteEntry> entries,
                                               std::int32_t instances,
                                               std::size_t chunk);

}  // namespace dist
}  // namespace pamr
