// pamr_lint — the repo-specific determinism linter, run over src/pamr as an
// ordinary ctest (see CMakeLists.txt).
//
// The library's core guarantee is that every result is a deterministic
// function of the spec: 1 thread == N threads == N workers == resumed, byte
// for byte. The differential suites enforce that dynamically; this tool
// enforces the coding contract that keeps it true *statically*, at the PR
// boundary:
//
//   ordered-iteration   unordered_map/unordered_set in result-producing
//                       paths (routing/, exp/, scenario/, dist/, topo/,
//                       sim/, map/, opt/).
//                       Hash-order iteration is the classic way
//                       nondeterminism leaks into aggregates; membership-only
//                       uses are fine but must say so with a justification:
//                         // pamr-lint: ordered-ok (<why ordering cannot leak>)
//   banned-call         rand()/srand()/time()/clock()/setlocale()/localtime()
//                       and std::locale anywhere in the library. Randomness
//                       goes through util/rng (seeded per item index); wall
//                       time through util/timer (never into results).
//                       Suppress with: // pamr-lint: determinism-ok (...)
//   float-format        %f/%e-style float conversions and std::fixed/
//                       std::scientific/std::setprecision in the bit-exact
//                       wire paths (dist/protocol, dist/shard_log,
//                       dist/merger, scenario/trace). Those layers exist to
//                       round-trip doubles exactly — the hex wire form and
//                       the shortest-exact "%.*g" trace formatter — and a
//                       fixed-precision print silently truncates.
//                       Suppress with: // pamr-lint: float-format-ok (...)
//   route-impl-call     calling a route_impl override directly. The only
//                       legal dispatch is the validating Router::route
//                       front door (routing/router.cpp), which runs
//                       check_comm_set first for every policy.
//                       Suppress with: // pamr-lint: route-impl-ok (...)
//   clock-family        std::chrono clock types (steady_clock, system_clock,
//                       high_resolution_clock) anywhere except the two
//                       carve-outs that own wall time: src/pamr/obs/ (the
//                       telemetry registry and tracer) and util/timer.
//                       Keeping every clock read behind those two doors is
//                       what makes "wall time never reaches results"
//                       auditable. Suppress with: // pamr-lint: clock-ok (...)
//   obs-value           telemetry readbacks (obs::snapshot, encode_/
//                       merge_cell_deltas) in result-producing paths. A
//                       counter value that flows into an aggregate, CSV or
//                       wire message breaks byte-identity between
//                       telemetry-on and telemetry-off runs; the dist side
//                       channel (worker "ctr" fields, coordinator merge) is
//                       the one justified reader.
//                       Suppress with: // pamr-lint: obs-ok (...)
//
// Modes:
//   pamr_lint [--root DIR] [paths...]     lint (default paths: src/pamr);
//                                         exit 1 on any violation
//   pamr_lint --fix-justifications ...    dry-run audit: list every existing
//                                         pamr-lint suppression with
//                                         file:line and its justification
//                                         (committed as
//                                         tools/lint_suppressions.txt so the
//                                         set stays reviewable); exits 1 if
//                                         a suppression carries no written
//                                         justification.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;  ///< root-relative path
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// The portion of `line` outside string/char literals and before a //
/// comment — what the code-pattern rules match against. (Format-string
/// rules scan the full pre-comment text: format strings *are* literals.)
struct SplitLine {
  std::string code;      ///< literals blanked out, comment removed
  std::string with_strings;  ///< literals kept, comment removed
  std::string comment;   ///< text after //, if any
};

SplitLine split_line(const std::string& line) {
  SplitLine out;
  bool in_string = false;
  bool in_char = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string || in_char) {
      out.with_strings += c;
      out.code += ' ';
      if (c == '\\' && i + 1 < line.size()) {
        out.with_strings += line[i + 1];
        out.code += ' ';
        ++i;
      } else if ((in_string && c == '"') || (in_char && c == '\'')) {
        in_string = in_char = false;
      }
      continue;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
      out.comment = line.substr(i + 2);
      break;
    }
    if (c == '"') in_string = true;
    if (c == '\'') in_char = true;
    out.code += c;
    out.with_strings += c;
  }
  return out;
}

/// True if `text` contains `token` at an identifier boundary (the previous
/// character is not part of an identifier), so `time(` matches `std::time(`
/// but not `elapsed_time(`.
bool contains_token(const std::string& text, const std::string& token,
                    std::size_t* at = nullptr) {
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    const char before = pos == 0 ? '\0' : text[pos - 1];
    if (std::isalnum(static_cast<unsigned char>(before)) == 0 && before != '_') {
      if (at != nullptr) *at = pos;
      return true;
    }
    pos += token.size();
  }
  return false;
}

/// True if the line (or the line above it — the usual spelling when the
/// justification is longer than the margin) carries the suppression comment:
///   // pamr-lint: <tag> (<justification>)
bool has_suppression(const SplitLine& split, const SplitLine& prev,
                     const std::string& tag) {
  const std::string needle = "pamr-lint: " + tag;
  return split.comment.find(needle) != std::string::npos ||
         prev.comment.find(needle) != std::string::npos;
}

/// A %-conversion whose conversion character is a fixed/scientific float
/// form (f, F, e, E, a, A). Skips flags, width, precision and length
/// modifiers, so "%.*g" and "%016llx" pass while "%7.2f" is caught.
bool has_float_conversion(const std::string& text) {
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') continue;
    std::size_t j = i + 1;
    if (j < text.size() && text[j] == '%') {  // literal %%
      i = j;
      continue;
    }
    while (j < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[j])) != 0 ||
            text[j] == '-' || text[j] == '+' || text[j] == ' ' ||
            text[j] == '#' || text[j] == '.' || text[j] == '*')) {
      ++j;
    }
    while (j < text.size() && (text[j] == 'h' || text[j] == 'l' ||
                               text[j] == 'L' || text[j] == 'q' ||
                               text[j] == 'j' || text[j] == 'z' ||
                               text[j] == 't')) {
      ++j;
    }
    if (j < text.size() && (text[j] == 'f' || text[j] == 'F' || text[j] == 'e' ||
                            text[j] == 'E' || text[j] == 'a' || text[j] == 'A')) {
      return true;
    }
  }
  return false;
}

/// Result-producing subsystems: hash-order iteration here can reach an
/// aggregate, a CSV byte stream or a routing decision.
bool in_result_path(const std::string& rel) {
  for (const char* dir :
       {"routing/", "exp/", "scenario/", "dist/", "topo/", "sim/", "map/", "opt/"}) {
    if (rel.find(dir) != std::string::npos) return true;
  }
  return false;
}

/// Bit-exact wire/CSV round-trip layers: the hex aggregate wire form and the
/// shortest-exact trace formatter live here.
bool in_wire_path(const std::string& rel) {
  for (const char* stem :
       {"dist/protocol", "dist/shard_log", "dist/merger", "scenario/trace"}) {
    if (rel.find(stem) != std::string::npos) return true;
  }
  return false;
}

/// The wall-time carve-out: the only files allowed to name a std::chrono
/// clock. util/timer wraps the steady clock for display timing; obs/ wraps
/// it for phase timers and trace spans. Everything else must go through one
/// of those doors.
bool in_clock_path(const std::string& rel) {
  return rel.find("obs/") != std::string::npos ||
         rel.find("util/timer") != std::string::npos;
}

const char* kClockTokens[] = {"steady_clock", "system_clock",
                              "high_resolution_clock"};

/// Telemetry readbacks: values leaving the obs registry. Legal only outside
/// result paths (report/trace writers) or with a justified obs-ok carve-out
/// (the dist wire side channel).
const char* kObsValueTokens[] = {"obs::snapshot(", "encode_cell_deltas(",
                                 "merge_cell_deltas("};

const struct {
  const char* token;
  const char* why;
} kBannedCalls[] = {
    {"rand(", "global-state RNG; use util/rng seeded by item index"},
    {"srand(", "global-state RNG seeding; use util/rng"},
    {"random_shuffle(", "unspecified RNG source; use util/rng"},
    {"random_device", "nondeterministic seed source; seeds come from the spec"},
    {"time(", "wall time in library code; use util/timer, never in results"},
    {"clock(", "wall time in library code; use util/timer, never in results"},
    {"localtime(", "locale/timezone-dependent"},
    {"gmtime(", "wall time in library code"},
    {"setlocale(", "locale changes break %-format and parse determinism"},
    {"std::locale", "locale-dependent formatting"},
};

void lint_file(const fs::path& path, const std::string& rel,
               std::vector<Finding>& findings) {
  std::ifstream file(path);
  std::string line;
  std::size_t number = 0;
  const bool result_path = in_result_path(rel);
  const bool wire_path = in_wire_path(rel);
  const bool clock_path = in_clock_path(rel);
  const bool is_dispatcher = rel.size() >= 18 &&
                             rel.rfind("routing/router.cpp") == rel.size() - 18;
  SplitLine prev;
  while (std::getline(file, line)) {
    ++number;
    const SplitLine split = split_line(line);

    if (result_path && (contains_token(split.code, "unordered_map<") ||
                        contains_token(split.code, "unordered_set<"))) {
      if (!has_suppression(split, prev, "ordered-ok")) {
        findings.push_back({rel, number, "ordered-iteration",
                            "unordered container in a result-producing path; "
                            "iteration order is hash-order. Use an ordered "
                            "container or justify with "
                            "'// pamr-lint: ordered-ok (...)'"});
      }
    }

    for (const auto& banned : kBannedCalls) {
      if (contains_token(split.code, banned.token) &&
          !has_suppression(split, prev, "determinism-ok")) {
        findings.push_back({rel, number, "banned-call",
                            std::string(banned.token) + " — " + banned.why +
                                "; or justify with "
                                "'// pamr-lint: determinism-ok (...)'"});
      }
    }

    if (!clock_path) {
      for (const char* token : kClockTokens) {
        if (contains_token(split.code, token) &&
            !has_suppression(split, prev, "clock-ok")) {
          findings.push_back({rel, number, "clock-family",
                              std::string(token) + " outside the wall-time "
                                  "carve-outs (src/pamr/obs/, util/timer); "
                                  "use WallTimer or the obs registry, or "
                                  "justify with '// pamr-lint: clock-ok (...)'"});
        }
      }
    }

    if (result_path) {
      for (const char* token : kObsValueTokens) {
        if (contains_token(split.code, token) &&
            !has_suppression(split, prev, "obs-ok")) {
          findings.push_back({rel, number, "obs-value",
                              std::string(token) + " in a result-producing "
                                  "path — telemetry values must never reach "
                                  "aggregate/CSV/wire bytes; justify side "
                                  "channels with '// pamr-lint: obs-ok (...)'"});
        }
      }
    }

    if (wire_path) {
      const bool stream_manip = contains_token(split.code, "std::fixed") ||
                                contains_token(split.code, "std::scientific") ||
                                contains_token(split.code, "setprecision(");
      if ((has_float_conversion(split.with_strings) || stream_manip) &&
          !has_suppression(split, prev, "float-format-ok")) {
        findings.push_back({rel, number, "float-format",
                            "fixed/scientific float formatting in a bit-exact "
                            "wire path; use the hex wire form or the "
                            "shortest-exact \"%.*g\" formatter, or justify "
                            "with '// pamr-lint: float-format-ok (...)'"});
      }
    }

    std::size_t at = 0;
    if (!is_dispatcher && contains_token(split.code, "route_impl(", &at)) {
      // A member access (`x.route_impl(` / `p->route_impl(`) is always a
      // call. A bare mention is a declaration or definition iff the
      // RouteResult return type precedes it on the line.
      const bool member_call =
          (at >= 1 && split.code[at - 1] == '.') ||
          (at >= 2 && split.code[at - 2] == '-' && split.code[at - 1] == '>');
      const bool declaration =
          !member_call && split.code.find("RouteResult") != std::string::npos &&
          split.code.find("RouteResult") < at;
      if (!declaration && !has_suppression(split, prev, "route-impl-ok")) {
        findings.push_back({rel, number, "route-impl-call",
                            "route_impl must only be reached via the "
                            "validating Router::route front door "
                            "(routing/router.cpp), or justify with "
                            "'// pamr-lint: route-impl-ok (...)'"});
      }
    }

    prev = split;
  }
}

struct Suppression {
  std::string file;
  std::size_t line = 0;
  std::string text;  ///< everything after "pamr-lint: "
};

void collect_suppressions(const fs::path& path, const std::string& rel,
                          std::vector<Suppression>& out) {
  std::ifstream file(path);
  std::string line;
  std::size_t number = 0;
  while (std::getline(file, line)) {
    ++number;
    const std::size_t pos = line.find("pamr-lint: ");
    if (pos == std::string::npos) continue;
    std::string text = line.substr(pos + 11);
    while (!text.empty() && (text.back() == ' ' || text.back() == '\r')) {
      text.pop_back();
    }
    out.push_back({rel, number, text});
  }
}

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root DIR] [--fix-justifications] [paths...]\n"
               "  Lints .cpp/.hpp files under each path (default: src/pamr)\n"
               "  against the pamr determinism contract. --fix-justifications\n"
               "  lists every existing suppression with file:line instead.\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  bool list_justifications = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (++i >= argc) return usage(argv[0]);
      root = argv[i];
    } else if (arg == "--fix-justifications") {
      list_justifications = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) paths.emplace_back("src/pamr");

  // Deterministic scan order: collect, then sort by root-relative path.
  std::vector<std::pair<fs::path, std::string>> files;  // (abs, rel)
  for (const std::string& entry : paths) {
    const fs::path abs = root / entry;
    std::error_code ec;
    if (fs::is_regular_file(abs, ec)) {
      files.emplace_back(abs, entry);
      continue;
    }
    if (!fs::is_directory(abs, ec)) {
      std::fprintf(stderr, "pamr_lint: no such file or directory: %s\n",
                   abs.string().c_str());
      return 2;
    }
    for (auto it = fs::recursive_directory_iterator(abs);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_regular_file() && lintable(it->path())) {
        files.emplace_back(it->path(),
                           fs::relative(it->path(), root).generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  if (list_justifications) {
    std::vector<Suppression> suppressions;
    for (const auto& [abs, rel] : files) {
      collect_suppressions(abs, rel, suppressions);
    }
    bool unjustified = false;
    for (const Suppression& s : suppressions) {
      std::printf("%s:%zu: %s\n", s.file.c_str(), s.line, s.text.c_str());
      // A tag with no written justification after it defeats the audit.
      if (s.text.find('(') == std::string::npos) {
        std::fprintf(stderr,
                     "%s:%zu: suppression has no (justification)\n",
                     s.file.c_str(), s.line);
        unjustified = true;
      }
    }
    std::printf("%zu suppression(s)\n", suppressions.size());
    return unjustified ? 1 : 0;
  }

  std::vector<Finding> findings;
  for (const auto& [abs, rel] : files) lint_file(abs, rel, findings);
  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "pamr_lint: %zu violation(s) in %zu file(s)\n",
                 findings.size(), files.size());
    return 1;
  }
  std::printf("pamr_lint: %zu file(s) clean\n", files.size());
  return 0;
}
