#include "pamr/exp/metrics.hpp"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "pamr/util/assert.hpp"
#include "pamr/util/string_util.hpp"

namespace pamr {
namespace exp {

const char* series_name(std::size_t series) noexcept {
  switch (series) {
    case 0: return "XY";
    case 1: return "SG";
    case 2: return "IG";
    case 3: return "TB";
    case 4: return "XYI";
    case 5: return "PR";
    case 6: return "BEST";
    default: return "?";
  }
}

InstanceSample make_instance_sample(
    const std::array<HeuristicSample, kNumBaseRouters>& base) {
  InstanceSample sample;
  for (std::size_t h = 0; h < kNumBaseRouters; ++h) sample.series[h] = base[h];
  // BEST: the valid base result with the lowest power; elapsed is the sum
  // (BEST must run everything).
  HeuristicSample best;
  for (std::size_t h = 0; h < kNumBaseRouters; ++h) {
    best.elapsed_ms += base[h].elapsed_ms;
    if (!base[h].valid) continue;
    if (!best.valid || base[h].power < best.power) {
      const double elapsed = best.elapsed_ms;
      best = base[h];
      best.elapsed_ms = elapsed;
    }
  }
  sample.series[kBestSeries] = best;
  return sample;
}

void PointAggregate::add(const InstanceSample& sample) {
  ++instances;
  const HeuristicSample& best = sample.series[kBestSeries];
  const double best_inverse = best.inverse_power();
  for (std::size_t s = 0; s < kNumSeries; ++s) {
    const HeuristicSample& heuristic = sample.series[s];
    const double normalized =
        best_inverse > 0.0 ? heuristic.inverse_power() / best_inverse : 0.0;
    normalized_inverse[s].add(normalized);
    inverse_power[s].add(heuristic.inverse_power());
    if (!sample.certified) elapsed_ms[s].add(heuristic.elapsed_ms);
    if (!heuristic.valid) ++failures[s];
  }
  if (best.valid && best.power > 0.0) {
    static_fraction.add(best.static_power / best.power);
  }
  if (sample.sim.ran) {
    sim_latency.add(sample.sim.latency_cycles);
    sim_delivery.add(sample.sim.delivery);
    sim_throughput.add(sample.sim.throughput_mbps);
  }
}

void PointAggregate::merge(const PointAggregate& other) {
  instances += other.instances;
  for (std::size_t s = 0; s < kNumSeries; ++s) {
    normalized_inverse[s].merge(other.normalized_inverse[s]);
    inverse_power[s].merge(other.inverse_power[s]);
    elapsed_ms[s].merge(other.elapsed_ms[s]);
    failures[s] += other.failures[s];
  }
  static_fraction.merge(other.static_fraction);
  sim_latency.merge(other.sim_latency);
  sim_delivery.merge(other.sim_delivery);
  sim_throughput.merge(other.sim_throughput);
}

// ------------------------------------------------------------- wire form --

namespace {

void append_hex_double(std::string& out, double value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, std::bit_cast<std::uint64_t>(value));
  out += buffer;
}

bool parse_hex_double(std::string_view text, double& out) noexcept {
  if (text.size() != 16) return false;
  std::uint64_t bits = 0;
  for (const char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    bits = (bits << 4) | static_cast<std::uint64_t>(digit);
  }
  out = std::bit_cast<double>(bits);
  return true;
}

void append_stats(std::string& out, const RunningStats& stats) {
  const RunningStats::State s = stats.state();
  out += std::to_string(s.n);
  for (const double value : {s.mean, s.m2, s.min, s.max}) {
    out += ':';
    append_hex_double(out, value);
  }
}

bool parse_stats(std::string_view text, RunningStats& out) noexcept {
  const std::vector<std::string> parts = split(text, ':');
  if (parts.size() != 5) return false;
  std::int64_t n = 0;
  if (!parse_int64(parts[0], n) || n < 0) return false;
  RunningStats::State s;
  s.n = static_cast<std::size_t>(n);
  if (!parse_hex_double(parts[1], s.mean) || !parse_hex_double(parts[2], s.m2) ||
      !parse_hex_double(parts[3], s.min) || !parse_hex_double(parts[4], s.max)) {
    return false;
  }
  out = RunningStats::from_state(s);
  return true;
}

}  // namespace

std::string serialize_point_aggregate(const PointAggregate& aggregate) {
  // aggv=2 added the simulation-probe stats (sl/sd/st); every key of the
  // version is required, so a v1 journal line is rejected loudly rather
  // than merged with silently-empty sim aggregates.
  std::string out = "aggv=2 n=" + std::to_string(aggregate.instances) + " sf=";
  append_stats(out, aggregate.static_fraction);
  out += " sl=";
  append_stats(out, aggregate.sim_latency);
  out += " sd=";
  append_stats(out, aggregate.sim_delivery);
  out += " st=";
  append_stats(out, aggregate.sim_throughput);
  for (std::size_t s = 0; s < kNumSeries; ++s) {
    const std::string tag = std::to_string(s);
    out += " ni" + tag + "=";
    append_stats(out, aggregate.normalized_inverse[s]);
    out += " ip" + tag + "=";
    append_stats(out, aggregate.inverse_power[s]);
    out += " ms" + tag + "=";
    append_stats(out, aggregate.elapsed_ms[s]);
    out += " f" + tag + "=" + std::to_string(aggregate.failures[s]);
  }
  return out;
}

bool parse_point_aggregate(std::string_view text, PointAggregate& out,
                           std::string& error) {
  PointAggregate parsed;
  // Every key must appear exactly once: kinds 0..3 are ni/ip/ms/f per
  // series, then aggv, n, sf, sl, sd, st. Duplicates could otherwise mask a
  // missing token of another kind — this parser is the journal's integrity
  // gate.
  std::array<bool, 4 * kNumSeries + 6> seen{};
  const auto once = [&](std::size_t slot, std::string_view key) {
    if (seen[slot]) {
      error = "duplicate aggregate key '" + std::string(key) + "'";
      return false;
    }
    seen[slot] = true;
    return true;
  };
  for (const std::string& raw : split(text, ' ')) {
    const std::string_view token = trim(raw);
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      error = "malformed aggregate token '" + std::string(token) + "'";
      return false;
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    bool ok = true;
    if (key == "aggv") {
      ok = once(4 * kNumSeries, key) && value == "2";
    } else if (key == "n") {
      std::int64_t n = 0;
      ok = once(4 * kNumSeries + 1, key) && parse_int64(value, n) && n >= 0;
      if (ok) parsed.instances = static_cast<std::size_t>(n);
    } else if (key == "sf") {
      ok = once(4 * kNumSeries + 2, key) && parse_stats(value, parsed.static_fraction);
    } else if (key == "sl") {
      ok = once(4 * kNumSeries + 3, key) && parse_stats(value, parsed.sim_latency);
    } else if (key == "sd") {
      ok = once(4 * kNumSeries + 4, key) && parse_stats(value, parsed.sim_delivery);
    } else if (key == "st") {
      ok = once(4 * kNumSeries + 5, key) && parse_stats(value, parsed.sim_throughput);
    } else if (key.size() >= 2 && (key[0] == 'f' || key.substr(0, 2) == "ni" ||
                                   key.substr(0, 2) == "ip" || key.substr(0, 2) == "ms")) {
      const bool failures_key = key[0] == 'f';
      std::int64_t series = 0;
      ok = parse_int64(key.substr(failures_key ? 1 : 2), series) && series >= 0 &&
           series < static_cast<std::int64_t>(kNumSeries);
      if (ok) {
        const auto s = static_cast<std::size_t>(series);
        std::size_t kind = 3;  // f
        if (!failures_key) {
          kind = key.substr(0, 2) == "ni" ? 0 : key.substr(0, 2) == "ip" ? 1 : 2;
        }
        ok = once(kind * kNumSeries + s, key);
        if (ok && failures_key) {
          std::int64_t count = 0;
          ok = parse_int64(value, count) && count >= 0;
          if (ok) parsed.failures[s] = static_cast<std::size_t>(count);
        } else if (ok && kind == 0) {
          ok = parse_stats(value, parsed.normalized_inverse[s]);
        } else if (ok && kind == 1) {
          ok = parse_stats(value, parsed.inverse_power[s]);
        } else if (ok) {
          ok = parse_stats(value, parsed.elapsed_ms[s]);
        }
      }
    } else {
      error = "unknown aggregate key '" + std::string(key) + "'";
      return false;
    }
    if (!ok) {
      if (error.empty())
        error = "bad value for aggregate key '" + std::string(key) + "'";
      return false;
    }
  }
  for (std::size_t slot = 0; slot < seen.size(); ++slot) {
    if (!seen[slot]) {
      error = slot == 4 * kNumSeries
                  ? "missing aggv=2 version token"
                  : "incomplete aggregate: a required key is missing";
      return false;
    }
  }
  out = parsed;
  error.clear();
  return true;
}

double PointAggregate::failure_ratio(std::size_t series) const {
  PAMR_CHECK(series < kNumSeries, "series index out of range");
  return instances > 0
             ? static_cast<double>(failures[series]) / static_cast<double>(instances)
             : 0.0;
}

}  // namespace exp
}  // namespace pamr
