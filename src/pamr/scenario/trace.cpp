#include "pamr/scenario/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "pamr/util/csv.hpp"
#include "pamr/util/log.hpp"
#include "pamr/util/string_util.hpp"

namespace pamr {
namespace scenario {

namespace {

constexpr const char* kHeader[] = {"src_u", "src_v", "snk_u", "snk_v", "weight"};
constexpr std::size_t kColumns = 5;

bool parse_coord_field(const std::string& cell, std::int32_t& out) {
  std::int64_t value = 0;
  if (!parse_int64(cell, value) || value < 0 || value > 1 << 20) return false;
  out = static_cast<std::int32_t>(value);
  return true;
}

}  // namespace

namespace {

/// Shared back half of the text and file readers: validated rows → comms.
bool rows_to_trace(const std::vector<std::vector<std::string>>& rows, CommSet& out,
                   std::string& error) {
  if (rows.empty()) {
    error = "empty trace (want a src_u,src_v,snk_u,snk_v,weight header)";
    return false;
  }
  const std::vector<std::string>& header = rows.front();
  if (header.size() != kColumns) {
    error = "trace header has " + std::to_string(header.size()) + " columns, want " +
            std::to_string(kColumns);
    return false;
  }
  for (std::size_t c = 0; c < kColumns; ++c) {
    if (trim(header[c]) != kHeader[c]) {
      error = "trace header column " + std::to_string(c + 1) + " is '" + header[c] +
              "', want '" + kHeader[c] + "'";
      return false;
    }
  }
  CommSet comms;
  comms.reserve(rows.size() - 1);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const std::vector<std::string>& row = rows[r];
    const std::string where = "trace row " + std::to_string(r + 1);
    if (row.size() != kColumns) {
      error = where + " has " + std::to_string(row.size()) + " cells, want " +
              std::to_string(kColumns);
      return false;
    }
    Communication comm;
    if (!parse_coord_field(row[0], comm.src.u) || !parse_coord_field(row[1], comm.src.v) ||
        !parse_coord_field(row[2], comm.snk.u) || !parse_coord_field(row[3], comm.snk.v)) {
      error = where + ": bad endpoint (want non-negative integers)";
      return false;
    }
    if (!parse_double(row[4], comm.weight) || !std::isfinite(comm.weight) ||
        !(comm.weight > 0.0)) {
      error = where + ": bad weight '" + row[4] + "' (want a finite positive Mb/s)";
      return false;
    }
    if (comm.src == comm.snk) {
      error = where + ": src == snk (" + std::to_string(comm.src.u) + "," +
              std::to_string(comm.src.v) + ")";
      return false;
    }
    comms.push_back(comm);
  }
  if (comms.empty()) {
    error = "trace has a header but no communications";
    return false;
  }
  out = std::move(comms);
  error.clear();
  return true;
}

}  // namespace

bool parse_trace_csv(std::string_view text, CommSet& out, std::string& error) {
  std::vector<std::vector<std::string>> rows;
  return parse_csv(text, rows, error) && rows_to_trace(rows, out, error);
}

bool read_trace_csv(const std::string& path, CommSet& out, std::string& error) {
  std::vector<std::vector<std::string>> rows;
  // read_csv_file prefixes I/O and structural errors with the path already;
  // only the trace-schema diagnostics need it added.
  if (!read_csv_file(path, rows, error)) return false;
  if (!rows_to_trace(rows, out, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

std::string trace_to_csv(const CommSet& comms) {
  std::string out = "src_u,src_v,snk_u,snk_v,weight\n";
  for (const Communication& comm : comms) {
    out += std::to_string(comm.src.u) + ',' + std::to_string(comm.src.v) + ',' +
           std::to_string(comm.snk.u) + ',' + std::to_string(comm.snk.v) + ',' +
           format_exact(comm.weight) + '\n';  // reloads bit-exactly
  }
  return out;
}

bool write_trace_csv(const CommSet& comms, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    PAMR_LOG_WARN("cannot open '" + path + "' for writing");
    return false;
  }
  file << trace_to_csv(comms);
  return static_cast<bool>(file);
}

std::string resolve_trace_path(const std::string& path) {
  if (!path.empty() && path.front() == '/') return path;
  if (const char* dir = std::getenv("PAMR_TRACE_DIR"); dir != nullptr && dir[0] != '\0') {
    const std::string candidate = std::string(dir) + "/" + path;
    std::error_code ec;
    if (std::filesystem::exists(candidate, ec)) return candidate;
  }
  return path;
}

const Trace& load_trace(const std::string& path) {
  static std::mutex mutex;
  static std::map<std::string, Trace> cache;  // keyed by the *unresolved* path
  const std::lock_guard<std::mutex> lock(mutex);
  if (const auto it = cache.find(path); it != cache.end()) return it->second;
  Trace trace;
  std::string error;
  if (!read_trace_csv(resolve_trace_path(path), trace.comms, error)) {
    throw std::runtime_error("trace replay: " + error);
  }
  for (std::size_t i = 0; i < trace.comms.size(); ++i) {
    const Communication& comm = trace.comms[i];
    // Data row i sits on CSV row i + 2 (row 1 is the header) — the same
    // numbering as rows_to_trace's diagnostics.
    const auto row = static_cast<std::int32_t>(i) + 2;
    const std::int32_t u = std::max(comm.src.u, comm.snk.u);
    const std::int32_t v = std::max(comm.src.v, comm.snk.v);
    if (i == 0 || u > trace.max_u) {
      trace.max_u = u;
      trace.max_u_row = row;
    }
    if (i == 0 || v > trace.max_v) {
      trace.max_v = v;
      trace.max_v_row = row;
    }
  }
  return cache.emplace(path, std::move(trace)).first->second;
}

}  // namespace scenario
}  // namespace pamr
