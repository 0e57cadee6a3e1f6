// Small string helpers shared by the CLI parser, CSV writer and loggers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pamr {

[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix) noexcept;
[[nodiscard]] std::string to_lower(std::string_view text);
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Fixed-precision double formatting ("%.*f") without iostream state leaks.
[[nodiscard]] std::string format_double(double value, int precision = 4);

/// Compact formatting ("%.10g") for machine-readable round-trips: values
/// with up to ten significant decimal digits — every constant in the
/// scenario registry — reparse exactly; no trailing zeros.
[[nodiscard]] std::string format_compact(double value);

/// The first of "%.<digits>g", "%.15g", "%.16g" and "%.17g" that
/// parse_double reads back to `value`'s exact bits (17 digits always do,
/// by the IEEE-754 shortest-representation guarantee). Text that must
/// reload bit-exactly prints through this: trace CSVs with the default,
/// spec text with digits = 10, so that short decimals keep
/// format_compact's form.
[[nodiscard]] std::string format_exact(double value, int digits = 15);

/// Escapes quotes, backslashes and control characters for embedding in a
/// JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Human-readable quantities for logs: "1.25 Gb/s", "16.9 mW".
[[nodiscard]] std::string format_bandwidth_mbps(double mbps);
[[nodiscard]] std::string format_power_mw(double mw);

/// Strict parsers: return false (leaving `out` untouched) on any trailing
/// garbage, overflow or empty input — CLI misuse should fail loudly.
[[nodiscard]] bool parse_int64(std::string_view text, std::int64_t& out) noexcept;
[[nodiscard]] bool parse_double(std::string_view text, double& out) noexcept;

}  // namespace pamr
