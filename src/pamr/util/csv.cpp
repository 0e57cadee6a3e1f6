#include "pamr/util/csv.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "pamr/util/assert.hpp"
#include "pamr/util/log.hpp"
#include "pamr/util/string_util.hpp"

namespace pamr {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  PAMR_CHECK(!header_.empty(), "a table needs at least one column");
}

void Table::add_row(std::vector<Cell> row) {
  PAMR_CHECK(row.size() <= header_.size(), "row wider than header");
  row.resize(header_.size(), Cell{std::string{}});
  rows_.push_back(std::move(row));
}

namespace {

std::string format_cell_text(const Cell& cell, int precision) {
  if (const auto* text = std::get_if<std::string>(&cell)) return *text;
  if (const auto* integer = std::get_if<std::int64_t>(&cell))
    return std::to_string(*integer);
  return format_double(std::get<double>(cell), precision);
}

/// Stream rows print doubles at a default Table's precision.
constexpr int kStreamPrecision = 4;

}  // namespace

std::string Table::format_cell(const Cell& cell) const {
  return format_cell_text(cell, precision_);
}

std::string Table::to_text() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(format_cell(row[c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      out << cells[c] << std::string(widths[c] - cells[c].size(), ' ');
    }
    out << " |\n";
  };
  emit_row(header_);
  out << '|';
  for (const auto w : widths) out << std::string(w + 2, '-') << '|';
  out << '\n';
  for (const auto& row : rendered) emit_row(row);
  return out.str();
}

namespace {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string Table::to_csv() const {
  std::ostringstream out;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c > 0) out << ',';
    out << csv_escape(header_[c]);
  }
  out << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ',';
      out << csv_escape(format_cell(row[c]));
    }
    out << '\n';
  }
  return out.str();
}

std::string Table::to_json() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out << (r == 0 ? "\n" : ",\n") << "  {";
    for (std::size_t c = 0; c < header_.size(); ++c) {
      if (c > 0) out << ", ";
      out << '"' << json_escape(header_[c]) << "\": ";
      const Cell& cell = rows_[r][c];
      if (const auto* text = std::get_if<std::string>(&cell)) {
        out << '"' << json_escape(*text) << '"';
      } else if (const auto* integer = std::get_if<std::int64_t>(&cell)) {
        out << *integer;
      } else {
        out << format_compact(std::get<double>(cell));
      }
    }
    out << "}";
  }
  out << "\n]\n";
  return out.str();
}

bool Table::write_csv(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    PAMR_LOG_WARN("cannot open '" + path + "' for writing");
    return false;
  }
  file << to_csv();
  return static_cast<bool>(file);
}

bool Table::write_json(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    PAMR_LOG_WARN("cannot open '" + path + "' for writing");
    return false;
  }
  file << to_json();
  return static_cast<bool>(file);
}

// --------------------------------------------------------- stream writer --

bool CsvStreamWriter::open(const std::string& path,
                           const std::vector<std::string>& header, bool append) {
  PAMR_CHECK(!header.empty(), "a stream needs at least one column");
  const std::lock_guard<std::mutex> lock(mutex_);
  PAMR_CHECK(!file_.is_open(), "stream already open");
  bool continuing = false;
  if (append) {
    std::ifstream existing(path);
    continuing = existing && existing.peek() != std::ifstream::traits_type::eof();
#if PAMR_CHECK_LEVEL >= 2
    if (continuing) {
      // Paranoid: a resumed run appending under a different header would
      // silently interleave differently-shaped rows; the shard journal makes
      // this unreachable, so reaching it means the resume path regressed.
      std::string expected;
      for (std::size_t c = 0; c < header.size(); ++c) {
        if (c > 0) expected += ',';
        expected += csv_escape(header[c]);
      }
      std::string first;
      std::getline(existing, first);
      if (!first.empty() && first.back() == '\r') first.pop_back();
      PAMR_INVARIANT("csv-stream", first == expected,
                     "appending to a stream whose header does not match");
    }
#endif
  }
  file_.open(path, append ? std::ios::app : std::ios::trunc);
  if (!file_) {
    PAMR_LOG_WARN("cannot open '" + path + "' for writing");
    return false;
  }
  path_ = path;
  columns_ = header.size();
  if (!continuing) {
    for (std::size_t c = 0; c < header.size(); ++c) {
      if (c > 0) file_ << ',';
      file_ << csv_escape(header[c]);
    }
    file_ << '\n' << std::flush;
  }
  return static_cast<bool>(file_);
}

bool CsvStreamWriter::append_row(const std::vector<Cell>& row) {
  const std::lock_guard<std::mutex> lock(mutex_);
  PAMR_CHECK(file_.is_open(), "stream not open");
  PAMR_CHECK(row.size() == columns_, "row width does not match the header");
  for (std::size_t c = 0; c < row.size(); ++c) {
    if (c > 0) file_ << ',';
    file_ << csv_escape(format_cell_text(row[c], kStreamPrecision));
  }
  file_ << '\n' << std::flush;
  if (!file_) {
    if (!warned_) PAMR_LOG_WARN("write to '" + path_ + "' failed");
    warned_ = true;
    return false;
  }
  return true;
}

// ----------------------------------------------------------------- reader --

bool parse_csv(std::string_view text, std::vector<std::vector<std::string>>& rows,
               std::string& error) {
  std::vector<std::vector<std::string>> parsed;
  std::vector<std::string> row;
  std::string cell;
  std::size_t line = 1;
  bool quoted = false;       // inside a quoted cell
  bool was_quoted = false;   // current cell started with a quote
  bool cell_open = false;    // the current row has at least a started cell

  const auto end_cell = [&] {
    row.push_back(std::move(cell));
    cell.clear();
    was_quoted = false;
    cell_open = false;
  };
  const auto end_row = [&] {
    end_cell();
    parsed.push_back(std::move(row));
    row.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        if (c == '\n') ++line;
        cell += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (cell.empty() && !was_quoted) {
          quoted = true;
          was_quoted = true;
          cell_open = true;
        } else {
          error = "line " + std::to_string(line) + ": unexpected '\"' in cell";
          return false;
        }
        break;
      case ',':
        end_cell();
        cell_open = true;  // a comma always opens the next cell
        break;
      case '\n':
        end_row();
        ++line;
        break;
      case '\r':
        if (i + 1 < text.size() && text[i + 1] == '\n') break;  // CRLF: \n ends the row
        error = "line " + std::to_string(line) + ": bare carriage return";
        return false;
      default:
        if (was_quoted) {
          error = "line " + std::to_string(line) + ": text after closing quote";
          return false;
        }
        cell += c;
        cell_open = true;
        break;
    }
  }
  if (quoted) {
    error = "line " + std::to_string(line) + ": unterminated quoted cell";
    return false;
  }
  if (cell_open || !cell.empty() || !row.empty()) end_row();  // no trailing newline
  rows = std::move(parsed);
  error.clear();
  return true;
}

bool read_csv_file(const std::string& path, std::vector<std::vector<std::string>>& rows,
                   std::string& error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    error = "cannot open '" + path + "' for reading";
    return false;
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  if (!parse_csv(contents.str(), rows, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

std::string output_directory() {
  if (const char* env = std::getenv("PAMR_OUT_DIR")) {
    if (env[0] != '\0') return env;
  }
  return ".";
}

}  // namespace pamr
