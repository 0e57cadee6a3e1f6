// Minimal leveled logger. All library diagnostics go through here so that
// benchmark binaries can silence the library (PAMR_LOG_LEVEL=error) without
// losing their own tabular output, and tests can assert on quietness.
#pragma once

#include <string>

namespace pamr {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide threshold, read once from PAMR_LOG_LEVEL
/// (debug|info|warn|error|off), default info.
[[nodiscard]] LogLevel log_level() noexcept;

/// Thread-safe write of one formatted line to stderr if `level` passes the
/// threshold. `where` is the call-site tag inserted by the macros.
void log_message(LogLevel level, const char* where, const std::string& message);

}  // namespace pamr

#define PAMR_LOG_DEBUG(msg) ::pamr::log_message(::pamr::LogLevel::kDebug, __func__, (msg))
#define PAMR_LOG_INFO(msg) ::pamr::log_message(::pamr::LogLevel::kInfo, __func__, (msg))
#define PAMR_LOG_WARN(msg) ::pamr::log_message(::pamr::LogLevel::kWarn, __func__, (msg))
#define PAMR_LOG_ERROR(msg) ::pamr::log_message(::pamr::LogLevel::kError, __func__, (msg))
