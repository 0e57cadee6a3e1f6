#include "pamr/util/args.hpp"

#include <cstdio>
#include <cstdlib>

#include "pamr/util/assert.hpp"
#include "pamr/util/string_util.hpp"

namespace pamr {

namespace {

/// Flag environment values: 1/true/yes/on set, 0/false/no/off clear,
/// anything else is ignored (the registered default stands).
bool parse_flag_value(const std::string& value, bool& out) {
  const std::string v = to_lower(trim(value));
  if (v == "1" || v == "true" || v == "yes" || v == "on") {
    out = true;
    return true;
  }
  if (v == "0" || v == "false" || v == "no" || v == "off") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::register_option(Option opt) {
  PAMR_CHECK(find(opt.name) == nullptr, "duplicate option --" + opt.name);
  // The environment fallback replaces the registered default — uniformly
  // for every kind, so PAMR_*-style overrides never silently no-op — and an
  // explicit command-line value later overwrites it in parse().
  if (!opt.env.empty()) {
    if (const char* value = std::getenv(opt.env.c_str())) {
      switch (opt.kind) {
        case Kind::kInt: {
          std::int64_t parsed = 0;
          if (parse_int64(value, parsed)) opt.int_value = parsed;
          break;
        }
        case Kind::kDouble: {
          double parsed = 0.0;
          if (parse_double(value, parsed)) opt.double_value = parsed;
          break;
        }
        case Kind::kString:
          opt.string_value = value;
          break;
        case Kind::kFlag: {
          bool parsed = false;
          if (parse_flag_value(value, parsed)) opt.flag_value = parsed;
          break;
        }
      }
    }
  }
  options_.push_back(std::move(opt));
}

void ArgParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help, const std::string& env) {
  Option opt;
  opt.name = name;
  opt.kind = Kind::kInt;
  opt.help = help;
  opt.env = env;
  opt.int_value = default_value;
  register_option(std::move(opt));
}

void ArgParser::add_double(const std::string& name, double default_value,
                           const std::string& help, const std::string& env) {
  Option opt;
  opt.name = name;
  opt.kind = Kind::kDouble;
  opt.help = help;
  opt.env = env;
  opt.double_value = default_value;
  register_option(std::move(opt));
}

void ArgParser::add_string(const std::string& name, const std::string& default_value,
                           const std::string& help, const std::string& env) {
  Option opt;
  opt.name = name;
  opt.kind = Kind::kString;
  opt.help = help;
  opt.env = env;
  opt.string_value = default_value;
  register_option(std::move(opt));
}

void ArgParser::add_flag(const std::string& name, const std::string& help,
                         const std::string& env) {
  Option opt;
  opt.name = name;
  opt.kind = Kind::kFlag;
  opt.help = help;
  opt.env = env;
  register_option(std::move(opt));
}

ArgParser::Option* ArgParser::find(const std::string& name) {
  for (auto& opt : options_) {
    if (opt.name == name) return &opt;
  }
  return nullptr;
}

const ArgParser::Option* ArgParser::find_checked(const std::string& name, Kind kind) const {
  for (const auto& opt : options_) {
    if (opt.name == name) {
      PAMR_CHECK(opt.kind == kind, "option --" + name + " accessed with wrong type");
      return &opt;
    }
  }
  PAMR_CHECK(false, "unknown option --" + name);
  return nullptr;  // unreachable
}

bool ArgParser::require_in(const std::string& name, std::int64_t min, std::int64_t max,
                           int& exit_code) const {
  const std::int64_t value = get_int(name);
  if (value >= min && value <= max) return true;
  std::fprintf(stderr, "%s: --%s must be %s %lld, got %lld\n", program_.c_str(), name.c_str(),
               value < min ? ">=" : "<=", static_cast<long long>(value < min ? min : max),
               static_cast<long long>(value));
  exit_code = 2;
  return false;
}

bool ArgParser::parse(int argc, const char* const* argv, int& exit_code) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      std::fputs(help_text().c_str(), stdout);
      exit_code = 0;
      return false;
    }
    if (!starts_with(token, "--")) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", program_.c_str(),
                   token.c_str());
      exit_code = 2;
      return false;
    }
    token.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (const auto eq = token.find('='); eq != std::string::npos) {
      value = token.substr(eq + 1);
      token.erase(eq);
      has_value = true;
    }
    Option* opt = find(token);
    if (opt == nullptr) {
      std::fprintf(stderr, "%s: unknown option '--%s'\n", program_.c_str(), token.c_str());
      exit_code = 2;
      return false;
    }
    if (opt->kind == Kind::kFlag) {
      // --flag sets; --flag=0/false/no/off clears, so an environment-enabled
      // flag can still be switched off for one invocation.
      if (has_value && !parse_flag_value(value, opt->flag_value)) {
        std::fprintf(stderr, "%s: bad value '%s' for flag '--%s'\n", program_.c_str(),
                     value.c_str(), token.c_str());
        exit_code = 2;
        return false;
      }
      if (!has_value) opt->flag_value = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: option '--%s' needs a value\n", program_.c_str(),
                     token.c_str());
        exit_code = 2;
        return false;
      }
      value = argv[++i];
    }
    bool ok = false;
    switch (opt->kind) {
      case Kind::kInt:
        ok = parse_int64(value, opt->int_value);
        break;
      case Kind::kDouble:
        ok = parse_double(value, opt->double_value);
        break;
      case Kind::kString:
        opt->string_value = value;
        ok = true;
        break;
      case Kind::kFlag:
        break;
    }
    if (!ok) {
      std::fprintf(stderr, "%s: bad value '%s' for option '--%s'\n", program_.c_str(),
                   value.c_str(), token.c_str());
      exit_code = 2;
      return false;
    }
  }
  exit_code = 0;
  return true;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return find_checked(name, Kind::kInt)->int_value;
}

double ArgParser::get_double(const std::string& name) const {
  return find_checked(name, Kind::kDouble)->double_value;
}

const std::string& ArgParser::get_string(const std::string& name) const {
  return find_checked(name, Kind::kString)->string_value;
}

bool ArgParser::get_flag(const std::string& name) const {
  return find_checked(name, Kind::kFlag)->flag_value;
}

std::string ArgParser::help_text() const {
  std::string out = program_ + " — " + description_ + "\n\noptions:\n";
  for (const auto& opt : options_) {
    out += "  --" + opt.name;
    const std::string env_note = opt.env.empty() ? "" : ", env " + opt.env;
    switch (opt.kind) {
      case Kind::kInt:
        out += " <int>      (default " + std::to_string(opt.int_value) + env_note + ")";
        break;
      case Kind::kDouble:
        out += " <float>    (default " + format_double(opt.double_value, 3) +
               env_note + ")";
        break;
      case Kind::kString:
        out += " <string>   (default '" + opt.string_value + "'" + env_note + ")";
        break;
      case Kind::kFlag:
        out += "            (flag" + env_note + ")";
        break;
    }
    out += "\n      " + opt.help + "\n";
  }
  out += "  --help\n      print this message\n";
  return out;
}

}  // namespace pamr
