#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>

#include "system.hpp"

namespace perfbench {

double median_setup(const Context& ctx, int repeats,
                    const std::function<void()>& setup) {
  std::vector<double> durations;
  for (int r = 0; r < repeats; ++r) {
    const double start = r == 0 ? ctx.process_start : now_seconds();
    setup();
    durations.push_back(now_seconds() - start);
  }
  return median(durations);
}

std::vector<double> timed_units(double seconds, std::size_t min_units,
                                const std::function<double(std::size_t)>& unit) {
  std::vector<double> durations;
  const double start = now_seconds();
  double last_wall = 0.0;
  for (std::size_t i = 0;; ++i) {
    const double unit_start = now_seconds();
    if (i >= min_units && unit_start - start + last_wall > seconds) break;
    durations.push_back(unit(i));
    last_wall = now_seconds() - unit_start;
  }
  return durations;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> best_per_key(const std::vector<double>& seconds,
                                 const std::vector<std::size_t>& keys,
                                 std::size_t key_count) {
  std::vector<double> best(key_count, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    best.at(keys.at(i)) = std::min(best.at(keys.at(i)), seconds[i]);
  }
  return best;
}

Tail tail(std::vector<double> values) {
  Tail out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  out.value = values.back();
  if (n < 20) return out;
  for (int p = 99; p >= 50; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    if (n - 1 - index >= 10) {
      out.value = values[index];
      out.percentile = p;
      return out;
    }
  }
  return out;
}

void add_end_to_end(RunReport& report, double setup_s,
                    const std::vector<double>& best_seconds,
                    const std::vector<double>& all_seconds,
                    double samples_per_s) {
  std::vector<double> unit_ms;
  for (double s : all_seconds) unit_ms.push_back(s * 1e3);
  const Tail unit_tail = tail(unit_ms);
  report.metrics.push_back({"setup_s", setup_s, "s"});
  report.metrics.push_back({"unit_ms_p50", median(best_seconds) * 1e3, "ms"});
  report.metrics.push_back({"samples_per_s", samples_per_s, "1/s"});
  report.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  // The tail is recorded but not bounded: on a shared host its run-to-run
  // spread reaches a third of its median, wider than any usable bound.
  report.details.add("unit_ms_tail", unit_tail.value);
  report.details.add_u64("unit_ms_tail_percentile",
                         static_cast<std::uint64_t>(unit_tail.percentile));
  report.details.add_u64("units_n", unit_ms.size());
  report.details.add_u64("distinct_units_n", best_seconds.size());
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Digest::add(std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    state_ ^= (value >> (8 * byte)) & 0xffU;
    state_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

void add_per_layer(RunReport& report, const LayerInputs& in) {
  const LayerTotals totals = summarise(in.spans);
  auto busy_ms = [&](const char* layer) {
    const auto it = totals.busy_seconds.find(layer);
    return it == totals.busy_seconds.end() ? 0.0 : it->second * 1e3;
  };
  auto per_unit = [&](double value) { return value / in.units; };
  auto ratio = [](double part, double base) {
    return base > 0.0 ? part / base : 0.0;
  };
  auto add = [&](const char* name, double value, const char* unit) {
    report.metrics.push_back({name, value, unit});
  };
  const auto& s = in.solver;
  const auto& r = in.rtn;
  const auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto counted = [&](const std::atomic<std::uint64_t> PipelineCounts::*field) {
    return per_unit(u64((in.counts.*field).load()));
  };
  const auto shards = totals.count.find("campaign.shard");

  add("physics.srh_setup_ms", per_unit(busy_ms("physics.srh_setup")), "ms");
  add("physics.srh_setups", counted(&PipelineCounts::srh_setups), "count");
  add("physics.trap_profile_ms", per_unit(busy_ms("physics.trap_profile")), "ms");
  add("physics.traps_drawn", counted(&PipelineCounts::traps_drawn), "count");
  add("core.bias_schedule_ms", per_unit(busy_ms("core.bias_schedule")), "ms");
  add("core.schedule_points", counted(&PipelineCounts::schedule_points), "count");
  add("core.tabulation_ms", per_unit(busy_ms("core.tabulation")), "ms");
  add("core.srh_evals", counted(&PipelineCounts::srh_evals), "count");
  add("core.sampling_ms", per_unit(busy_ms("core.sampling")), "ms");
  add("core.rtn_candidates", per_unit(u64(r.candidates)), "count");
  add("core.rtn_accepted", per_unit(u64(r.accepted)), "count");
  add("core.rtn_acceptance", ratio(u64(r.accepted), u64(r.candidates)), "ratio");
  add("core.envelope_efficiency",
      r.envelope_integral > 0.0 ? r.envelope_efficiency() : 0.0, "ratio");
  add("core.render_ms", per_unit(busy_ms("core.render")), "ms");
  add("sram.build_ms", per_unit(busy_ms("sram.build")), "ms");
  add("sram.bias_extract_ms", per_unit(busy_ms("sram.bias_extract")), "ms");
  add("sram.detect_ms", per_unit(busy_ms("sram.detect")), "ms");
  add("spice.nominal_transient_ms",
      per_unit(busy_ms("spice.nominal_transient")), "ms");
  add("spice.injected_transient_ms",
      per_unit(busy_ms("spice.injected_transient")), "ms");
  add("spice.newton_iterations", per_unit(u64(s.newton_iterations)), "count");
  add("spice.lu_factorizations", per_unit(u64(s.lu_factorizations)), "count");
  add("spice.device_loads", per_unit(u64(s.device_loads)), "count");
  add("spice.steps_accepted", per_unit(u64(s.steps_accepted)), "count");
  add("spice.step_reject_ratio",
      ratio(u64(s.steps_rejected), u64(s.steps_accepted + s.steps_rejected)),
      "ratio");
  add("spice.bypass_ratio", ratio(u64(s.bypass_hits), u64(s.lu_solves)),
      "ratio");
  add("spice.sp_numeric_refactors", per_unit(u64(s.sp_numeric_refactors)),
      "count");
  add("spice.sp_symbolic_analyses", per_unit(u64(s.sp_symbolic_analyses)),
      "count");
  add("spice.ap_elided_share",
      ratio(u64(s.ap_elided_loads), u64(s.device_loads + s.ap_elided_loads)),
      "ratio");
  add("spice.ap_rows_skipped", per_unit(u64(s.ap_rows_skipped)), "count");
  add("spice.batch_ms_per_lane",
      ratio(busy_ms("spice.batch_transient"), u64(s.bt_lanes)), "ms");
  add("spice.bt_lanes", per_unit(u64(s.bt_lanes)), "count");
  add("campaign.shard_ms", per_unit(busy_ms("campaign.shard")), "ms");
  add("campaign.ledger_append_ms", per_unit(busy_ms("campaign.ledger_append")),
      "ms");
  add("campaign.state_store_ms", per_unit(busy_ms("campaign.state_store")), "ms");
  add("campaign.fold_ms", per_unit(busy_ms("campaign.fold")), "ms");
  add("campaign.shards",
      per_unit(shards == totals.count.end() ? 0.0 : u64(shards->second)),
      "count");
  add("util.cpu_utilisation", in.cpu_utilisation, "ratio");
  add("trace.coverage", ratio(totals.top_level_seconds, in.traced_wall), "ratio");
  add("trace.overhead_share", ratio(in.traced_wall, in.untraced_wall) - 1.0,
      "ratio");
  add("trace.wall_ms", per_unit(in.traced_wall * 1e3), "ms");
  add("check.failed_share", in.failed_share, "ratio");

  report.details.add("per_layer_units", in.units);
  report.details.add("traced_wall_s", in.traced_wall);
  report.details.add("untraced_wall_s", in.untraced_wall);
  report.details.add("tabulation_share_of_traced_wall",
                     ratio(busy_ms("core.tabulation") * 1e-3, in.traced_wall));
  report.details.add_u64("spans", in.spans.size());
  report.details.add_u64("span_threads", totals.threads);
}

void remove_tree(const std::string& path) noexcept {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
