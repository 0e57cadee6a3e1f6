// Tiny declarative CLI parser for the bench and example binaries.
//
// Supported syntax: --name value, --name=value, --flag (and --flag=<bool>
// to clear one). Every binary also honours --help (prints registered
// options and exits 0). Every option kind can fall back to an environment
// variable (upper-snake, PAMR_ prefix by convention), which is how
// PAMR_TRIALS scales the Monte-Carlo campaigns; an explicit command-line
// value always wins over the environment — including `--flag=off` to
// disable an environment-enabled flag for one invocation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pamr {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Registration: call before parse(). `env` (optional) names an
  /// environment variable consulted when the option is absent on the
  /// command line — supported uniformly by every option kind. Unparsable
  /// environment values are ignored (the default stands); flags accept
  /// 1/true/yes/on and 0/false/no/off, case-insensitive.
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help, const std::string& env = {});
  void add_double(const std::string& name, double default_value, const std::string& help,
                  const std::string& env = {});
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help, const std::string& env = {});
  void add_flag(const std::string& name, const std::string& help,
                const std::string& env = {});

  /// Parses argv. Returns false if the program should exit (after --help or
  /// a reported error); `exit_code` is set accordingly.
  [[nodiscard]] bool parse(int argc, const char* const* argv, int& exit_code);

  /// After parse(): false, with "<program>: --<name> must be >= <min>, got
  /// N" (or "<= <max>") printed and `exit_code` set to 2, when the int
  /// option lies outside [min, max].
  [[nodiscard]] bool require_in(const std::string& name, std::int64_t min, std::int64_t max,
                                int& exit_code) const;

  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  [[nodiscard]] std::string help_text() const;

 private:
  enum class Kind { kInt, kDouble, kString, kFlag };

  struct Option {
    std::string name;
    Kind kind;
    std::string help;
    std::string env;
    std::int64_t int_value = 0;
    double double_value = 0.0;
    std::string string_value;
    bool flag_value = false;
  };

  [[nodiscard]] Option* find(const std::string& name);
  [[nodiscard]] const Option* find_checked(const std::string& name, Kind kind) const;
  void register_option(Option opt);  ///< applies the env fallback, then stores

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
};

}  // namespace pamr
