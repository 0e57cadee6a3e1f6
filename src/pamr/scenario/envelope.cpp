#include "pamr/scenario/envelope.hpp"

#include <algorithm>
#include <cmath>

#include "pamr/util/assert.hpp"
#include "pamr/util/string_util.hpp"

namespace pamr {
namespace scenario {

IntensityEnvelope::IntensityEnvelope(std::vector<EnvelopePhase> phases)
    : phases_(std::move(phases)) {
  for (const EnvelopePhase& phase : phases_) {
    PAMR_CHECK(phase.a >= 0.0 && phase.b >= 0.0, "envelope scales must be >= 0");
    PAMR_CHECK(phase.duty >= 0.0 && phase.duty <= 1.0, "burst duty must be in [0, 1]");
  }
}

double IntensityEnvelope::scale_at(double t) const noexcept {
  if (phases_.empty()) return 1.0;
  t = std::clamp(t, 0.0, std::nextafter(1.0, 0.0));
  const auto count = static_cast<double>(phases_.size());
  const auto index = static_cast<std::size_t>(t * count);
  const double local = t * count - static_cast<double>(index);
  const EnvelopePhase& phase = phases_[index];
  switch (phase.kind) {
    case EnvelopePhase::Kind::kConst: return phase.a;
    case EnvelopePhase::Kind::kRamp: return phase.a + (phase.b - phase.a) * local;
    case EnvelopePhase::Kind::kBurst: return local < phase.duty ? phase.b : phase.a;
  }
  return 1.0;  // unreachable
}

std::string IntensityEnvelope::to_string() const {
  std::string out;
  for (const EnvelopePhase& phase : phases_) {
    if (!out.empty()) out += '/';
    switch (phase.kind) {
      case EnvelopePhase::Kind::kConst:
        out += "const:" + format_exact(phase.a, 10);
        break;
      case EnvelopePhase::Kind::kRamp:
        out += "ramp:" + format_exact(phase.a, 10) + ":" + format_exact(phase.b, 10);
        break;
      case EnvelopePhase::Kind::kBurst:
        out += "burst:" + format_exact(phase.a, 10) + ":" + format_exact(phase.b, 10) +
               ":" + format_exact(phase.duty, 10);
        break;
    }
  }
  return out;
}

bool IntensityEnvelope::parse(std::string_view text, IntensityEnvelope& out,
                              std::string& error) {
  std::vector<EnvelopePhase> phases;
  if (!trim(text).empty()) {
    for (const std::string& part : split(trim(text), '/')) {
      const std::vector<std::string> fields = split(part, ':');
      EnvelopePhase phase;
      auto number = [&](std::size_t i, double& value) {
        return parse_double(fields[i], value) && std::isfinite(value) && value >= 0.0;
      };
      bool ok = false;
      if (fields.size() == 2 && fields[0] == "const") {
        phase.kind = EnvelopePhase::Kind::kConst;
        ok = number(1, phase.a);
      } else if (fields.size() == 3 && fields[0] == "ramp") {
        phase.kind = EnvelopePhase::Kind::kRamp;
        ok = number(1, phase.a) && number(2, phase.b);
      } else if (fields.size() == 4 && fields[0] == "burst") {
        phase.kind = EnvelopePhase::Kind::kBurst;
        ok = number(1, phase.a) && number(2, phase.b) && number(3, phase.duty) &&
             phase.duty <= 1.0;
      }
      if (!ok) {
        error = "bad envelope phase '" + part +
                "' (want const:s, ramp:a:b or burst:base:peak:duty)";
        return false;
      }
      phases.push_back(phase);
    }
  }
  out = IntensityEnvelope(std::move(phases));
  return true;
}

IntensityEnvelope IntensityEnvelope::constant(double scale) {
  // Unused fields keep their defaults (b = 1, duty = 0.5), matching what
  // parse("const:s") builds — a const phase constructed here and one parsed
  // from its own to_string() must compare equal, or specs only differ in
  // dead state and every value-equality round-trip test trips.
  return IntensityEnvelope({{EnvelopePhase::Kind::kConst, scale, 1.0, 0.5}});
}

IntensityEnvelope IntensityEnvelope::ramp(double from, double to) {
  return IntensityEnvelope({{EnvelopePhase::Kind::kRamp, from, to, 0.5}});
}

IntensityEnvelope IntensityEnvelope::burst(double base, double peak, double duty) {
  return IntensityEnvelope({{EnvelopePhase::Kind::kBurst, base, peak, duty}});
}

}  // namespace scenario
}  // namespace pamr
