#include "campaign/manifest.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "campaign/checkpoint.hpp"
#include "campaign/json.hpp"
#include "campaign/runner.hpp"
#include "campaign/shard.hpp"

namespace samurai::campaign {
namespace {

TEST(CampaignJson, DoubleRoundTripsBitExact) {
  for (double value : {0.1 + 0.2, 1.0 / 3.0, 1e-300, 6.02214076e23,
                       -0.0061250000000000003, 42.0}) {
    JsonWriter writer;
    writer.add("x", value);
    const auto parsed = JsonObject::parse(writer.str());
    EXPECT_EQ(parsed.get_double("x", 0.0), value) << writer.str();
  }
}

TEST(CampaignJson, ParsesTypesAndFallbacks) {
  const auto json = JsonObject::parse(
      "{\"s\": \"hello world\", \"n\": -2.5, \"i\": 77, \"b\": true, "
      "\"quoted\\\"\": \"esc\\\\aped\"}");
  EXPECT_EQ(json.get_string("s", ""), "hello world");
  EXPECT_EQ(json.get_double("n", 0.0), -2.5);
  EXPECT_EQ(json.get_u64("i", 0), 77u);
  EXPECT_TRUE(json.get_bool("b", false));
  EXPECT_EQ(json.get_string("quoted\"", ""), "esc\\aped");
  EXPECT_EQ(json.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(json.has("missing"));
}

TEST(CampaignJson, RejectsMalformedInput) {
  EXPECT_THROW(JsonObject::parse("not json"), std::runtime_error);
  EXPECT_THROW(JsonObject::parse("{\"k\" 1}"), std::runtime_error);
  EXPECT_THROW(JsonObject::parse("{\"k\": \"unterminated}"),
               std::runtime_error);
}

TEST(CampaignJson, NonFiniteBecomesNull) {
  JsonWriter writer;
  writer.add("x", std::numeric_limits<double>::infinity());
  EXPECT_NE(writer.str().find("null"), std::string::npos);
  const auto parsed = JsonObject::parse(writer.str());
  EXPECT_EQ(parsed.get_double("x", -1.0), -1.0);  // falls back
}

TEST(CampaignManifest, RoundTripsThroughJson) {
  Manifest manifest;
  manifest.kind = CampaignKind::kVmin;
  manifest.name = "night run";
  manifest.seed = 123456789;
  manifest.budget = 5000;
  manifest.shard_size = 250;
  manifest.threads = 8;
  manifest.target_rel_half_width = 0.125;
  manifest.min_samples = 500;
  manifest.node = "45nm";
  manifest.v_dd = 0.97;
  manifest.bits = "1011";
  manifest.rtn_scale = 120.0;
  manifest.sigma_vt = 0.0275;
  manifest.shift = {0.06, 0.09, 0.0, 0.0, -0.01, 0.0};
  manifest.count_slow_as_fail = true;
  manifest.with_rtn = false;
  manifest.v_lo = 0.55;
  manifest.v_hi = 1.05;
  manifest.resolution = 0.0125;
  manifest.rtn_seeds = 3;
  manifest.rows = 64;
  manifest.cols = 32;

  const Manifest copy = Manifest::from_json(manifest.to_json());
  EXPECT_EQ(copy.kind, manifest.kind);
  EXPECT_EQ(copy.name, manifest.name);
  EXPECT_EQ(copy.seed, manifest.seed);
  EXPECT_EQ(copy.budget, manifest.budget);
  EXPECT_EQ(copy.shard_size, manifest.shard_size);
  EXPECT_EQ(copy.threads, manifest.threads);
  EXPECT_EQ(copy.target_rel_half_width, manifest.target_rel_half_width);
  EXPECT_EQ(copy.min_samples, manifest.min_samples);
  EXPECT_EQ(copy.node, manifest.node);
  EXPECT_EQ(copy.v_dd, manifest.v_dd);
  EXPECT_EQ(copy.bits, manifest.bits);
  EXPECT_EQ(copy.rtn_scale, manifest.rtn_scale);
  EXPECT_EQ(copy.sigma_vt, manifest.sigma_vt);
  EXPECT_EQ(copy.shift, manifest.shift);
  EXPECT_EQ(copy.count_slow_as_fail, manifest.count_slow_as_fail);
  EXPECT_EQ(copy.with_rtn, manifest.with_rtn);
  EXPECT_EQ(copy.v_lo, manifest.v_lo);
  EXPECT_EQ(copy.v_hi, manifest.v_hi);
  EXPECT_EQ(copy.resolution, manifest.resolution);
  EXPECT_EQ(copy.rtn_seeds, manifest.rtn_seeds);
  EXPECT_EQ(copy.rows, manifest.rows);
  EXPECT_EQ(copy.cols, manifest.cols);
}

TEST(CampaignManifest, PreArrayManifestsParseWithDefaults) {
  // Ledgers written before the array footprint existed carry no
  // rows/cols keys; they must keep parsing as unconstrained.
  const Manifest manifest = Manifest::from_json(
      "{\"kind\": \"importance\", \"budget\": 10, \"shard_size\": 5}");
  EXPECT_EQ(manifest.rows, 0u);
  EXPECT_EQ(manifest.cols, 0u);
  // Manifests from when the unused `activity` knob existed still load.
  const Manifest with_activity = Manifest::from_json(
      "{\"kind\": \"array-yield\", \"budget\": 16, \"shard_size\": 4, "
      "\"rows\": 4, \"cols\": 4, \"activity\": \"elide\"}");
  EXPECT_EQ(with_activity.kind, CampaignKind::kArrayYield);
  EXPECT_EQ(with_activity.rows, 4u);
  EXPECT_EQ(with_activity.budget, 16u);
}

TEST(CampaignManifest, ValidationCatchesBadJobs) {
  Manifest manifest;
  manifest.budget = 0;
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = Manifest{};
  manifest.shard_size = 0;
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = Manifest{};
  manifest.sigma_vt = 0.0;
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = Manifest{};
  manifest.bits = "abc";
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = Manifest{};
  manifest.kind = CampaignKind::kVmin;
  manifest.v_lo = 1.2;
  manifest.v_hi = 1.0;
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = Manifest{};
  manifest.rows = 8;  // cols left unset
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = Manifest{};
  manifest.kind = CampaignKind::kArrayYield;
  manifest.rows = 4;
  manifest.cols = 4;
  manifest.budget = 17;  // 17 samples > 16 cells
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest.budget = 16;
  EXPECT_NO_THROW(manifest.validate());
  EXPECT_THROW(kind_from_string("bogus"), std::invalid_argument);
}

TEST(CampaignManifest, ShardPartitionCoversBudgetExactly) {
  Manifest manifest;
  manifest.budget = 23;
  manifest.shard_size = 5;
  ASSERT_EQ(manifest.shard_count(), 5u);
  std::uint64_t covered = 0;
  for (std::uint64_t i = 0; i < manifest.shard_count(); ++i) {
    const ShardSpec spec = shard_spec(manifest, i);
    EXPECT_EQ(spec.index, i);
    EXPECT_EQ(spec.first, covered);
    covered += spec.count;
  }
  EXPECT_EQ(covered, 23u);
  EXPECT_EQ(shard_spec(manifest, 4).count, 3u);  // partial tail shard
  EXPECT_THROW(shard_spec(manifest, 5), std::out_of_range);

  // Shard sizes near 2^64 must not wrap the count to zero shards.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t size : {kMax, kMax - 1, kMax / 2 + 1}) {
    manifest.shard_size = size;
    ASSERT_EQ(manifest.shard_count(), 1u) << size;
    EXPECT_EQ(shard_spec(manifest, 0).count, 23u);
  }
  manifest.budget = kMax;
  manifest.shard_size = 2;
  EXPECT_EQ(manifest.shard_count(), kMax / 2 + 1);
  EXPECT_EQ(shard_spec(manifest, kMax / 2).count, 1u);
  manifest.shard_size = kMax;
  EXPECT_EQ(manifest.shard_count(), 1u);
}

/// Every solver and sampler counter a distinct value, set in table order.
/// The integers exceed 2^53, so a reader that went through a double would
/// lose bits.
void fill_distinct_counters(spice::SolverStats& solver,
                            core::UniformisationStats& rtn) {
  std::uint64_t i = 0;
  for (const auto& c : spice::kSolverCounters) {
    solver.*c.field = 0x9E3779B97F4A7C15ULL * ++i;
  }
  for (const auto& c : core::kUniformisationCounts) {
    rtn.*c.field = 0x9E3779B97F4A7C15ULL * ++i;
  }
  double k = 0.0;
  for (const auto& c : core::kUniformisationSums) {
    rtn.*c.field = ++k / 7.0 * 1e5;
  }
}

TEST(CampaignShardResult, LedgerLineRoundTripsBitExact) {
  ShardResult shard;
  shard.index = 7;
  shard.samples = 250;
  shard.weighted.count = 250;
  shard.weighted.failures = 31;
  shard.weighted.weight_sum = 249.99999999999903;
  shard.weighted.weight_sq_sum = 0.1 + 0.2;
  shard.weighted.fail_weight_sum = 1.0 / 3.0;
  shard.weighted.fail_weight_sq_sum = 2.0 / 7.0;
  shard.fails = {250, 31};
  shard.nominal_fails = {250, 2};
  shard.slow = {250, 11};
  shard.value.count = 219;
  shard.value.mean = 0.83124999999999993;
  shard.value.m2 = 5.0e-4 / 3.0;
  shard.wall_seconds = 12.25;
  fill_distinct_counters(shard.solver, shard.rtn);

  const ShardResult copy = ShardResult::from_json(shard.to_json());
  EXPECT_EQ(copy.index, shard.index);
  EXPECT_EQ(copy.samples, shard.samples);
  EXPECT_EQ(copy.weighted.count, shard.weighted.count);
  EXPECT_EQ(copy.weighted.failures, shard.weighted.failures);
  EXPECT_EQ(copy.weighted.weight_sum, shard.weighted.weight_sum);
  EXPECT_EQ(copy.weighted.weight_sq_sum, shard.weighted.weight_sq_sum);
  EXPECT_EQ(copy.weighted.fail_weight_sum, shard.weighted.fail_weight_sum);
  EXPECT_EQ(copy.weighted.fail_weight_sq_sum,
            shard.weighted.fail_weight_sq_sum);
  EXPECT_EQ(copy.fails.count, shard.fails.count);
  EXPECT_EQ(copy.fails.successes, shard.fails.successes);
  EXPECT_EQ(copy.nominal_fails.successes, shard.nominal_fails.successes);
  EXPECT_EQ(copy.slow.successes, shard.slow.successes);
  EXPECT_EQ(copy.value.count, shard.value.count);
  EXPECT_EQ(copy.value.mean, shard.value.mean);
  EXPECT_EQ(copy.value.m2, shard.value.m2);
  EXPECT_EQ(copy.wall_seconds, shard.wall_seconds);
  for (const auto& c : spice::kSolverCounters) {
    EXPECT_EQ(copy.solver.*c.field, shard.solver.*c.field) << c.key;
  }
  for (const auto& c : core::kUniformisationCounts) {
    EXPECT_EQ(copy.rtn.*c.field, shard.rtn.*c.field) << c.key;
  }
  for (const auto& c : core::kUniformisationSums) {
    EXPECT_EQ(copy.rtn.*c.field, shard.rtn.*c.field) << c.key;
  }
}

// The ledger line and the summary are an on-disk format: these are the
// exact bytes the hand-written writers printed before the counter tables
// replaced them, for the same values set through the named fields.
TEST(CampaignCounters, LedgerLineAndSummaryBytesAreStable) {
  ShardResult shard;
  shard.index = 3;
  shard.samples = 64;
  fill_distinct_counters(shard.solver, shard.rtn);
  EXPECT_EQ(shard.to_json(),
      "{\"shard\": 3, \"samples\": 64, \"w_count\": 0, "
      "\"w_failures\": 0, \"w_sum\": 0, \"w_sq_sum\": 0, "
      "\"w_fail_sum\": 0, \"w_fail_sq_sum\": 0, \"fail_count\": 0, "
      "\"fail_successes\": 0, \"nominal_count\": 0, "
      "\"nominal_successes\": 0, \"slow_count\": 0, "
      "\"slow_successes\": 0, \"value_count\": 0, "
      "\"value_mean\": 0, \"value_m2\": 0, \"wall_seconds\": 0, "
      "\"nw_iterations\": 11400714819323198485, "
      "\"nw_factorizations\": 4354685564936845354, "
      "\"nw_solves\": 15755400384260043839, "
      "\"nw_bypass_hits\": 8709371129873690708, "
      "\"nw_device_loads\": 1663341875487337577, "
      "\"nw_cache_hits\": 13064056694810536062, "
      "\"nw_steps_accepted\": 6018027440424182931, "
      "\"nw_steps_rejected\": 17418742259747381416, "
      "\"nw_transients\": 10372713005361028285, "
      "\"nw_workspace_allocations\": 3326683750974675154, "
      "\"sp_symbolic_analyses\": 14727398570297873639, "
      "\"sp_numeric_refactors\": 7681369315911520508, "
      "\"sp_solves\": 635340061525167377, "
      "\"bt_batches\": 12036054880848365862, "
      "\"bt_lanes\": 4990025626462012731, "
      "\"bt_steps\": 16390740445785211216, "
      "\"ap_elided_loads\": 9344711191398858085, "
      "\"ap_partial_refactors\": 2298681937012504954, "
      "\"ap_rows_skipped\": 13699396756335703439, "
      "\"ap_folded_cells\": 6653367501949350308, "
      "\"rtn_candidates\": 18054082321272548793, "
      "\"rtn_accepted\": 11008053066886195662, "
      "\"rtn_segments\": 3962023812499842531, "
      "\"rtn_rng_refills\": 15362738631823041016, "
      "\"rtn_envelope_integral\": 14285.714285714284, "
      "\"rtn_fixed_bound_integral\": 28571.428571428569}");

  CampaignResult result;
  result.manifest.kind = CampaignKind::kImportance;
  result.manifest.name = "campaign";
  result.manifest.budget = 1000;
  result.manifest.shard_size = 100;
  result.solver = shard.solver;
  result.rtn = shard.rtn;
  EXPECT_EQ(result.to_json(),
      "{\"kind\": \"importance\", \"name\": \"campaign\", "
      "\"status\": \"paused\", \"shards_done\": 0, "
      "\"shard_count\": 10, \"budget\": 1000, \"budget_used\": 0, "
      "\"budget_saved\": 0, \"estimate\": 0, "
      "\"standard_error\": 0, \"ci_lo\": 0, \"ci_hi\": 0, "
      "\"relative_half_width\": 0, \"effective_sample_size\": 0, "
      "\"failures\": 0, \"wall_seconds\": 0, "
      "\"nw_iterations\": 11400714819323198485, "
      "\"nw_factorizations\": 4354685564936845354, "
      "\"nw_solves\": 15755400384260043839, "
      "\"nw_bypass_hits\": 8709371129873690708, "
      "\"nw_device_loads\": 1663341875487337577, "
      "\"nw_cache_hits\": 13064056694810536062, "
      "\"nw_steps_accepted\": 6018027440424182931, "
      "\"nw_steps_rejected\": 17418742259747381416, "
      "\"nw_transients\": 10372713005361028285, "
      "\"nw_workspace_allocations\": 3326683750974675154, "
      "\"sp_symbolic_analyses\": 14727398570297873639, "
      "\"sp_numeric_refactors\": 7681369315911520508, "
      "\"sp_solves\": 635340061525167377, "
      "\"bt_batches\": 12036054880848365862, "
      "\"bt_lanes\": 4990025626462012731, "
      "\"bt_steps\": 16390740445785211216, "
      "\"ap_elided_loads\": 9344711191398858085, "
      "\"ap_partial_refactors\": 2298681937012504954, "
      "\"ap_rows_skipped\": 13699396756335703439, "
      "\"ap_folded_cells\": 6653367501949350308, "
      "\"rtn_candidates\": 18054082321272548793, "
      "\"rtn_accepted\": 11008053066886195662, "
      "\"rtn_segments\": 3962023812499842531, "
      "\"rtn_rng_refills\": 15362738631823041016, "
      "\"rtn_envelope_integral\": 14285.714285714284, "
      "\"rtn_fixed_bound_integral\": 28571.428571428569, "
      "\"rtn_envelope_efficiency\": 2}");
}

TEST(CampaignCounters, LedgerWithoutCounterKeysReadsZero) {
  // A line as written before any nw_/sp_/bt_/ap_/rtn_ key existed.
  const ShardResult shard = ShardResult::from_json(
      "{\"shard\": 2, \"samples\": 10, \"fail_count\": 10, "
      "\"fail_successes\": 1, \"wall_seconds\": 0.5}");
  EXPECT_EQ(shard.index, 2u);
  EXPECT_EQ(shard.fails.successes, 1u);
  for (const auto& c : spice::kSolverCounters) {
    EXPECT_EQ(shard.solver.*c.field, 0u) << c.key;
  }
  for (const auto& c : core::kUniformisationCounts) {
    EXPECT_EQ(shard.rtn.*c.field, 0u) << c.key;
  }
  for (const auto& c : core::kUniformisationSums) {
    EXPECT_EQ(shard.rtn.*c.field, 0.0) << c.key;
  }
}

TEST(CampaignCounters, TableKeysAndFieldsAreUnique) {
  std::set<std::string> keys;
  for (const auto& c : spice::kSolverCounters) keys.insert(c.key);
  for (const auto& c : core::kUniformisationCounts) keys.insert(c.key);
  for (const auto& c : core::kUniformisationSums) keys.insert(c.key);
  EXPECT_EQ(keys.size(), spice::kSolverCounters.size() +
                             core::kUniformisationCounts.size() +
                             core::kUniformisationSums.size());
  // Two rows naming one field would pass the sizeof check with a field
  // left out of every output.
  const auto expect_distinct_fields = [](const auto& table) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_NE(table[i].field, table[j].field) << table[i].key;
      }
    }
  };
  expect_distinct_fields(spice::kSolverCounters);
  expect_distinct_fields(core::kUniformisationCounts);
  expect_distinct_fields(core::kUniformisationSums);
}

class CampaignCheckpointFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("samurai_campaign_files_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  // Runs on success *and* on test failure, so no temp litter either way.
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CampaignCheckpointFiles, AtomicWriteLeavesNoTempFile) {
  std::filesystem::create_directories(dir_);
  const std::string path = dir_ + "/status.json";
  write_file_atomic(path, "{\"a\": 1}");
  write_file_atomic(path, "{\"a\": 2}");
  EXPECT_EQ(read_file(path), "{\"a\": 2}");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(CampaignCheckpointFiles, LedgerToleratesOutOfOrderAppends) {
  // Worker processes append in completion order; load sorts by index and
  // the fold stops at the gap (shard 1's worker died before appending).
  Checkpoint checkpoint(dir_);
  Manifest manifest;
  manifest.budget = 30;
  manifest.shard_size = 10;
  checkpoint.init(manifest);
  ShardResult first, third;
  first.index = 0;
  first.samples = 10;
  first.fails = {10, 1};
  third.index = 2;
  third.samples = 10;
  third.fails = {10, 2};
  checkpoint.append_ledger(third);
  checkpoint.append_ledger(first);
  const auto ledger = checkpoint.load_ledger();
  ASSERT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger[0].index, 0u);
  EXPECT_EQ(ledger[1].index, 2u);
  const CampaignResult folded = fold_ledger(manifest, ledger);
  EXPECT_EQ(folded.shards_done, 1u);
  EXPECT_EQ(folded.samples_done, 10u);
  EXPECT_FALSE(folded.complete);
}

TEST_F(CampaignCheckpointFiles, InitRefusesToClobberALedger) {
  Checkpoint checkpoint(dir_);
  Manifest manifest;
  checkpoint.init(manifest);
  ShardResult shard;
  shard.samples = 10;
  shard.fails = {10, 1};
  checkpoint.append_ledger(shard);
  EXPECT_THROW(checkpoint.init(manifest), std::runtime_error);
}

}  // namespace
}  // namespace samurai::campaign
