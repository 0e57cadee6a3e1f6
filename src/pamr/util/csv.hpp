// Tabular output: aligned text tables for the terminal (the benches print
// the same series the paper's figures plot) and CSV files for re-plotting.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

namespace pamr {

/// A cell is text, an integer, or a double (formatted with per-table
/// precision). Missing cells render as empty.
using Cell = std::variant<std::string, std::int64_t, double>;

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  [[nodiscard]] std::size_t columns() const noexcept { return header_.size(); }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Appends a row; shorter rows are padded with empty cells, longer rows
  /// are an error.
  void add_row(std::vector<Cell> row);

  void set_double_precision(int precision) noexcept { precision_ = precision; }

  /// Renders an aligned, pipe-separated text table.
  [[nodiscard]] std::string to_text() const;

  /// Renders RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
  [[nodiscard]] std::string to_csv() const;

  /// Renders a JSON array of row objects keyed by column name; numeric
  /// cells stay numbers (doubles at full "%.10g" precision).
  [[nodiscard]] std::string to_json() const;

  /// Writes CSV to `path`; returns false (and logs) on I/O failure.
  bool write_csv(const std::string& path) const;

  /// Writes to_json() to `path`; returns false (and logs) on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::string format_cell(const Cell& cell) const;

  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
  int precision_ = 4;
};

/// Incremental CSV writer: appends one row at a time and flushes it, so a
/// 50k-instance campaign streams results to disk as chunks complete instead
/// of buffering a whole Table in memory — and an interrupted run leaves
/// every completed row readable. append() is thread-safe (pool workers and
/// the distributed coordinator's event loop both call it directly).
class CsvStreamWriter {
 public:
  CsvStreamWriter() = default;
  CsvStreamWriter(const CsvStreamWriter&) = delete;
  CsvStreamWriter& operator=(const CsvStreamWriter&) = delete;

  /// Opens `path` and writes the header row. With `append` set, an
  /// existing non-empty file is continued instead (no second header) —
  /// how `pamr_dist --resume` keeps one stream across interruptions.
  /// Returns false (after logging) on I/O failure.
  [[nodiscard]] bool open(const std::string& path,
                          const std::vector<std::string>& header,
                          bool append = false);

  [[nodiscard]] bool is_open() const noexcept { return file_.is_open(); }

  /// Appends one row and flushes. Rows must match the header width.
  /// Returns false (after logging, once) on I/O failure.
  bool append_row(const std::vector<Cell>& row);

 private:
  mutable std::mutex mutex_;
  std::ofstream file_;
  std::string path_;
  std::size_t columns_ = 0;
  bool warned_ = false;
};

// -- Reader ------------------------------------------------------------------
//
// Minimal RFC-4180 input side, the mirror of to_csv(): quoted cells may
// contain commas, doubled quotes and embedded newlines; rows end in \n or
// \r\n; a trailing newline is optional. Cells are returned verbatim (no
// numeric coercion — trace.hpp and friends parse what they expect). This is
// what lets workload layers *load* data the campaign tools wrote.

/// Parses CSV text into rows of cells. Returns false with `error` naming
/// the 1-based line of the first structural problem (a stray quote, text
/// after a closing quote, an unterminated quoted cell).
[[nodiscard]] bool parse_csv(std::string_view text,
                             std::vector<std::vector<std::string>>& rows,
                             std::string& error);

/// Reads and parses a CSV file; `error` names the path on I/O failure.
[[nodiscard]] bool read_csv_file(const std::string& path,
                                 std::vector<std::vector<std::string>>& rows,
                                 std::string& error);

/// Output directory for experiment artifacts: $PAMR_OUT_DIR or "." .
[[nodiscard]] std::string output_directory();

}  // namespace pamr
