#include "pamr/util/string_util.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pamr {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])) != 0) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) --end;
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format_double(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string format_compact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string format_exact(double value, int digits) {
  char buffer[32];
  for (;; digits = std::max(digits + 1, 15)) {
    std::snprintf(buffer, sizeof buffer, "%.*g", digits, value);
    double reparsed = 0.0;
    if (digits >= 17 ||
        (parse_double(buffer, reparsed) &&
         std::bit_cast<std::uint64_t>(reparsed) == std::bit_cast<std::uint64_t>(value))) {
      return buffer;
    }
  }
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

std::string format_bandwidth_mbps(double mbps) {
  if (mbps >= 1000.0) return format_double(mbps / 1000.0, 2) + " Gb/s";
  return format_double(mbps, 1) + " Mb/s";
}

std::string format_power_mw(double mw) {
  if (mw >= 1000.0) return format_double(mw / 1000.0, 3) + " W";
  return format_double(mw, 2) + " mW";
}

bool parse_int64(std::string_view text, std::int64_t& out) noexcept {
  const std::string buf{trim(text)};
  if (buf.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  out = static_cast<std::int64_t>(value);
  return true;
}

bool parse_double(std::string_view text, double& out) noexcept {
  const std::string buf{trim(text)};
  if (buf.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  out = value;
  return true;
}

}  // namespace pamr
