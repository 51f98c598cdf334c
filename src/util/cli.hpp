// Command-line handling for the bench, example and tool binaries.  Each
// binary registers exactly the flags it reads through `add_*` before
// parse(); an unregistered flag is an error.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mwr::util {

/// Minimal declarative flag parser.  Unknown flags are an error (a typo'd
/// flag silently falling back to defaults would corrupt an experiment).
class Cli {
 public:
  explicit Cli(std::string program_description);

  /// Registers an integer flag with a default.
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help);
  /// Registers a floating-point flag with a default.
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  /// Registers a string flag with a default.
  void add_string(const std::string& name, std::string default_value,
                  const std::string& help);
  /// Registers a boolean switch (present => true).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv.  On "--help" prints usage, on "--version" prints the
  /// build-configuration line (compiler, sanitizers, thread-safety
  /// analysis — see util/build_info.hpp); both return false (caller
  /// should exit 0).  Throws std::invalid_argument on malformed input.
  [[nodiscard]] bool parse(int argc, char** argv);

  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kInt, kDouble, kString, kFlag };
  struct Entry {
    Kind kind;
    std::string help;
    std::int64_t int_value = 0;
    double double_value = 0.0;
    std::string string_value;
    bool flag_value = false;
  };
  const Entry& lookup(const std::string& name, Kind kind) const;

  std::string description_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
};

/// Registers `--metrics-out FILE` (default: disabled).  Binaries that
/// register it must call write_metrics_if_requested() before exiting.
void add_metrics_flag(Cli& cli);

/// Writes the global MetricsRegistry snapshot to the `--metrics-out`
/// path; no-op (returns false) when the flag was left empty.
bool write_metrics_if_requested(const Cli& cli);

}  // namespace mwr::util
