// Flat JSON read/write for the campaign runtime's on-disk artifacts
// (manifest.json, shards.jsonl lines, status.json, lease files).
//
// The campaign files are all *flat* objects — string / number / bool
// values; status.json's one nested per-worker array is written raw and
// read back as an opaque value — so a full JSON library is not needed.
// The writer preserves field order and renders doubles with enough digits
// to round-trip bit-exactly (a checkpoint must restore the estimator
// state the uninterrupted run would have had); the parser accepts exactly
// the subset the writer emits plus whitespace.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace samurai::campaign {

/// Render a double so that parsing the text recovers the identical bits
/// (17 significant digits; glibc's strtod is correctly rounded).
std::string format_double(double value);

/// Order-preserving writer for one flat JSON object.
class JsonWriter {
 public:
  void add(const std::string& key, const std::string& value);  // quoted
  void add(const std::string& key, const char* value);
  void add(const std::string& key, double value);
  void add(const std::string& key, bool value);
  void add_u64(const std::string& key, std::uint64_t value);
  /// Pre-rendered JSON (e.g. a nested array built by the caller).
  void add_raw(const std::string& key, const std::string& raw);

  std::string str() const;  ///< {"k": v, ...} on one line

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Parsed flat JSON object with typed accessors. Unknown keys are kept
/// (forward compatibility); missing keys fall back.
class JsonObject {
 public:
  /// Parse one flat object. Throws std::runtime_error on malformed input.
  static JsonObject parse(const std::string& text);

  bool has(const std::string& key) const;
  std::string get_string(const std::string& key, std::string fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;  ///< raw (strings unescaped)
  std::map<std::string, bool> quoted_;
};

}  // namespace samurai::campaign
