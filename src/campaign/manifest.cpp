#include "campaign/manifest.hpp"

#include <stdexcept>

#include "campaign/json.hpp"

namespace samurai::campaign {

std::string to_string(CampaignKind kind) {
  switch (kind) {
    case CampaignKind::kImportance: return "importance";
    case CampaignKind::kArrayYield: return "array-yield";
    case CampaignKind::kVmin: return "vmin";
  }
  return "unknown";
}

CampaignKind kind_from_string(const std::string& name) {
  if (name == "importance") return CampaignKind::kImportance;
  if (name == "array-yield" || name == "array") return CampaignKind::kArrayYield;
  if (name == "vmin") return CampaignKind::kVmin;
  throw std::invalid_argument("unknown campaign kind: " + name);
}

std::uint64_t Manifest::shard_count() const {
  if (shard_size == 0) return 0;
  // Not (budget + shard_size - 1) / shard_size: that wraps for shard sizes
  // near 2^64 and yields zero shards.
  return budget / shard_size + (budget % shard_size != 0 ? 1 : 0);
}

void Manifest::validate() const {
  if (budget == 0) throw std::invalid_argument("manifest: budget must be > 0");
  if (shard_size == 0) {
    throw std::invalid_argument("manifest: shard_size must be > 0");
  }
  if (kind == CampaignKind::kImportance && !(sigma_vt > 0.0)) {
    throw std::invalid_argument("manifest: sigma_vt must be > 0");
  }
  if (batch == 0) throw std::invalid_argument("manifest: batch must be > 0");
  if (batch > 1 && (kind != CampaignKind::kImportance || with_rtn)) {
    throw std::invalid_argument(
        "manifest: batch > 1 requires kind = importance with with_rtn = "
        "false (only the nominal-only workload batches)");
  }
  if (target_rel_half_width < 0.0) {
    throw std::invalid_argument("manifest: target_rel_half_width must be >= 0");
  }
  if (!(confidence_z > 0.0)) {
    throw std::invalid_argument("manifest: confidence_z must be > 0");
  }
  if (kind == CampaignKind::kVmin) {
    const bool open_ceiling = v_hi <= 0.0;  // resolved from the node later
    if (!open_ceiling && !(v_lo < v_hi)) {
      throw std::invalid_argument("manifest: bad vmin sweep range");
    }
    if (!(resolution > 0.0)) {
      throw std::invalid_argument("manifest: resolution must be > 0");
    }
    if (rtn_seeds == 0) {
      throw std::invalid_argument("manifest: rtn_seeds must be > 0");
    }
  }
  if ((rows == 0) != (cols == 0)) {
    throw std::invalid_argument(
        "manifest: rows and cols must be set together");
  }
  if (rows > 0 && kind == CampaignKind::kArrayYield && budget > rows * cols) {
    throw std::invalid_argument(
        "manifest: budget exceeds the rows*cols cell population");
  }
  bool any_bit = false;
  for (char ch : bits) any_bit |= (ch == '0' || ch == '1');
  if (!any_bit) throw std::invalid_argument("manifest: bits has no 0/1");
}

std::string Manifest::to_json() const {
  JsonWriter json;
  json.add("kind", to_string(kind));
  json.add("name", name);
  json.add_u64("seed", seed);
  json.add_u64("budget", budget);
  json.add_u64("shard_size", shard_size);
  json.add_u64("threads", threads);
  json.add_u64("batch", batch);
  json.add("target_rel_half_width", target_rel_half_width);
  json.add("confidence_z", confidence_z);
  json.add_u64("min_samples", min_samples);
  json.add("node", node);
  json.add("v_dd", v_dd);
  json.add("bits", bits);
  json.add("rtn_scale", rtn_scale);
  json.add("extra_node_cap", extra_node_cap);
  json.add("period", period);
  json.add("sigma_vt", sigma_vt);
  for (int m = 0; m < 6; ++m) {
    json.add("shift_m" + std::to_string(m + 1), shift[static_cast<size_t>(m)]);
  }
  json.add("count_slow_as_fail", count_slow_as_fail);
  json.add("with_rtn", with_rtn);
  json.add_u64("rows", rows);
  json.add_u64("cols", cols);
  json.add("v_lo", v_lo);
  json.add("v_hi", v_hi);
  json.add("resolution", resolution);
  json.add_u64("rtn_seeds", rtn_seeds);
  return json.str();
}

Manifest Manifest::from_json(const std::string& text) {
  const JsonObject json = JsonObject::parse(text);
  Manifest manifest;
  manifest.kind = kind_from_string(json.get_string("kind", "importance"));
  manifest.name = json.get_string("name", manifest.name);
  manifest.seed = json.get_u64("seed", manifest.seed);
  manifest.budget = json.get_u64("budget", manifest.budget);
  manifest.shard_size = json.get_u64("shard_size", manifest.shard_size);
  manifest.threads = json.get_u64("threads", manifest.threads);
  manifest.batch = json.get_u64("batch", manifest.batch);
  manifest.target_rel_half_width =
      json.get_double("target_rel_half_width", manifest.target_rel_half_width);
  manifest.confidence_z = json.get_double("confidence_z", manifest.confidence_z);
  manifest.min_samples = json.get_u64("min_samples", manifest.min_samples);
  manifest.node = json.get_string("node", manifest.node);
  manifest.v_dd = json.get_double("v_dd", manifest.v_dd);
  manifest.bits = json.get_string("bits", manifest.bits);
  manifest.rtn_scale = json.get_double("rtn_scale", manifest.rtn_scale);
  manifest.extra_node_cap =
      json.get_double("extra_node_cap", manifest.extra_node_cap);
  manifest.period = json.get_double("period", manifest.period);
  manifest.sigma_vt = json.get_double("sigma_vt", manifest.sigma_vt);
  for (int m = 0; m < 6; ++m) {
    manifest.shift[static_cast<size_t>(m)] =
        json.get_double("shift_m" + std::to_string(m + 1), 0.0);
  }
  manifest.count_slow_as_fail =
      json.get_bool("count_slow_as_fail", manifest.count_slow_as_fail);
  manifest.with_rtn = json.get_bool("with_rtn", manifest.with_rtn);
  manifest.rows = json.get_u64("rows", manifest.rows);
  manifest.cols = json.get_u64("cols", manifest.cols);
  manifest.v_lo = json.get_double("v_lo", manifest.v_lo);
  manifest.v_hi = json.get_double("v_hi", manifest.v_hi);
  manifest.resolution = json.get_double("resolution", manifest.resolution);
  manifest.rtn_seeds = json.get_u64("rtn_seeds", manifest.rtn_seeds);
  manifest.validate();
  return manifest;
}

}  // namespace samurai::campaign
