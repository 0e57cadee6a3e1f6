#include "pamr/util/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "pamr/util/string_util.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

namespace {

LogLevel parse_level_env() {
  const char* env = std::getenv("PAMR_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kInfo;
  const std::string value = to_lower(env);
  if (value == "debug") return LogLevel::kDebug;
  if (value == "info") return LogLevel::kInfo;
  if (value == "warn" || value == "warning") return LogLevel::kWarn;
  if (value == "error") return LogLevel::kError;
  if (value == "off" || value == "none") return LogLevel::kOff;
  // Straight fprintf, not log_message: this runs during log_level()'s
  // static init, and the level is only parsed once — so the warning fires
  // once per process, naming the value that was silently ignored before.
  std::fprintf(stderr,
               "[pamr WARN ] log: unrecognized PAMR_LOG_LEVEL '%s' "
               "(expected debug|info|warn|error|off); defaulting to info\n",
               env);
  return LogLevel::kInfo;
}

/// Shared epoch for the "+<ms>" stamp: the first log_message call. Elapsed
/// time, not absolute time, so log lines order runs without leaking
/// wall-clock state into anything diffable.
const WallTimer& log_epoch() noexcept {
  static const WallTimer timer;
  return timer;
}

const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}

}  // namespace

LogLevel log_level() noexcept {
  static const LogLevel level = parse_level_env();
  return level;
}

void log_message(LogLevel level, const char* where, const std::string& message) {
  if (level < log_level()) return;
  static std::mutex mutex;
  const double elapsed_ms = log_epoch().elapsed_ms();
  std::lock_guard<std::mutex> lock(mutex);
  std::fprintf(stderr, "[pamr %s +%.1fms] %s: %s\n", level_name(level), elapsed_ms,
               where, message.c_str());
}

}  // namespace pamr
