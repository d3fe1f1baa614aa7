// Minimal command-line option parsing for examples and benches.
//
// Supports `--name value` and `--name=value`. A binary that declares its
// options (require_declared) fails on an unknown one; otherwise an unknown
// option is silently ignored, so a typo'd name runs with the default. A
// value must parse in full (no trailing junk; seeds take no sign),
// otherwise the getter throws std::invalid_argument naming the option.
// Only the handful of types the binaries need.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace samurai::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Throws std::invalid_argument naming the first option on the command
  /// line that is not in `declared`, so that a retired or typo'd flag
  /// fails instead of running with the defaults.
  void require_declared(std::initializer_list<std::string_view> declared) const;

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name, std::string fallback) const;
  double get_double(const std::string& name, double fallback) const;
  long long get_int(const std::string& name, long long fallback) const;
  /// get_int, but for repetition counts: values < 1 are rejected with a
  /// clear error instead of silently producing an empty (or garbage) run.
  long long get_count(const std::string& name, long long fallback) const;
  /// get_double, but for durations/intervals that must be > 0 (lease TTLs,
  /// poll periods): zero, negative or non-finite values are rejected with
  /// a clear error instead of silently disabling the mechanism.
  double get_positive_double(const std::string& name, double fallback) const;
  /// An unsigned 64-bit integer (0x.. is hex). A sign is rejected, so
  /// `-1` fails instead of wrapping to 2^64 - 1: use it for seeds, sizes
  /// and caps where 0 has a meaning of its own.
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const;
  std::uint64_t get_seed(const std::string& name, std::uint64_t fallback) const {
    return get_u64(name, fallback);
  }

  /// Positional (non `--`) arguments in order.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> names_;  ///< option names in command-line order
  std::vector<std::string> positional_;
};

}  // namespace samurai::util
