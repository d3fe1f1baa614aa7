// Checkpoint/resume determinism and early stopping — the campaign
// runtime's headline guarantees.
#include "campaign/checkpoint.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/json.hpp"
#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "campaign/service/lease.hpp"
#include "campaign/service/worker.hpp"
#include "campaign/shard.hpp"
#include "sram/array.hpp"
#include "util/rng.hpp"

namespace samurai::campaign {
namespace {

// Fixture owning a per-test temp tree. TearDown runs on success *and* on
// EXPECT/ASSERT failure, so failing tests leave no litter behind.
class CampaignCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = (std::filesystem::temp_directory_path() /
             ("samurai_campaign_" + std::string(info->name()) + "_" +
              std::to_string(::getpid())))
                .string();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string dir(const std::string& leaf) const { return root_ + "/" + leaf; }

  std::string root_;
};

Manifest small_importance_manifest(std::size_t threads) {
  Manifest manifest;
  manifest.kind = CampaignKind::kImportance;
  manifest.name = "resume-test";
  manifest.seed = 21;
  manifest.budget = 24;
  manifest.shard_size = 6;
  manifest.threads = threads;
  manifest.v_dd = 1.05;
  manifest.sigma_vt = 0.12;
  manifest.with_rtn = false;  // nominal-only: fast
  manifest.shift[0] = 0.06;   // M1
  manifest.shift[1] = 0.06;   // M2
  return manifest;
}

void expect_bit_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.shards_done, b.shards_done);
  EXPECT_EQ(a.samples_done, b.samples_done);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.stopped_early, b.stopped_early);
  EXPECT_EQ(a.budget_saved, b.budget_saved);
  EXPECT_EQ(a.weighted.count, b.weighted.count);
  EXPECT_EQ(a.weighted.failures, b.weighted.failures);
  EXPECT_EQ(a.weighted.weight_sum, b.weighted.weight_sum);
  EXPECT_EQ(a.weighted.weight_sq_sum, b.weighted.weight_sq_sum);
  EXPECT_EQ(a.weighted.fail_weight_sum, b.weighted.fail_weight_sum);
  EXPECT_EQ(a.weighted.fail_weight_sq_sum, b.weighted.fail_weight_sq_sum);
  EXPECT_EQ(a.fails.count, b.fails.count);
  EXPECT_EQ(a.fails.successes, b.fails.successes);
  EXPECT_EQ(a.nominal_fails.successes, b.nominal_fails.successes);
  EXPECT_EQ(a.slow.successes, b.slow.successes);
  EXPECT_EQ(a.value.count, b.value.count);
  EXPECT_EQ(a.value.mean, b.value.mean);
  EXPECT_EQ(a.value.m2, b.value.m2);
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.standard_error, b.standard_error);
  EXPECT_EQ(a.ci.lo, b.ci.lo);
  EXPECT_EQ(a.ci.hi, b.ci.hi);
  EXPECT_EQ(a.effective_sample_size, b.effective_sample_size);
}

void expect_ledgers_identical(const std::string& dir_a,
                              const std::string& dir_b) {
  const auto a = Checkpoint(dir_a).load_ledger();
  const auto b = Checkpoint(dir_b).load_ledger();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].samples, b[i].samples);
    EXPECT_EQ(a[i].weighted.weight_sum, b[i].weighted.weight_sum);
    EXPECT_EQ(a[i].weighted.weight_sq_sum, b[i].weighted.weight_sq_sum);
    EXPECT_EQ(a[i].weighted.fail_weight_sum, b[i].weighted.fail_weight_sum);
    EXPECT_EQ(a[i].weighted.fail_weight_sq_sum,
              b[i].weighted.fail_weight_sq_sum);
    EXPECT_EQ(a[i].weighted.failures, b[i].weighted.failures);
    EXPECT_EQ(a[i].fails.successes, b[i].fails.successes);
    EXPECT_EQ(a[i].nominal_fails.successes, b[i].nominal_fails.successes);
    EXPECT_EQ(a[i].slow.successes, b[i].slow.successes);
    EXPECT_EQ(a[i].value.count, b[i].value.count);
    EXPECT_EQ(a[i].value.mean, b[i].value.mean);
    EXPECT_EQ(a[i].value.m2, b[i].value.m2);
    // wall_seconds is observability, not estimator state: excluded.
  }
}

// The acceptance criterion: kill after shard k, resume, and every
// statistic matches the uninterrupted run bit-for-bit — at 1 thread and
// at 4 threads (thread schedule must not leak into results either).
class CampaignResumeTest : public CampaignCheckpointTest,
                           public ::testing::WithParamInterface<std::size_t> {
};

TEST_P(CampaignResumeTest, KillAndResumeIsBitIdentical) {
  const Manifest manifest = small_importance_manifest(GetParam());

  RunOptions full_options;
  full_options.dir = dir("full");
  const CampaignResult full = run_campaign(manifest, full_options);
  ASSERT_TRUE(full.complete);
  ASSERT_EQ(full.samples_done, manifest.budget);

  // Same campaign, killed after 2 of 4 shards...
  RunOptions kill_options;
  kill_options.dir = dir("killed");
  kill_options.max_shards_this_run = 2;
  const CampaignResult partial = run_campaign(manifest, kill_options);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.shards_done, 2u);
  EXPECT_EQ(partial.samples_done, 12u);

  // ...then resumed from the ledger to completion.
  RunOptions resume_options;
  resume_options.dir = dir("killed");
  const CampaignResult resumed = resume_campaign(resume_options);
  ASSERT_TRUE(resumed.complete);

  expect_bit_identical(full, resumed);
  expect_ledgers_identical(dir("full"), dir("killed"));
}

INSTANTIATE_TEST_SUITE_P(Threads, CampaignResumeTest,
                         ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST_F(CampaignCheckpointTest, ThreadCountDoesNotChangeResults) {
  const CampaignResult serial = run_campaign(small_importance_manifest(1));
  const CampaignResult threaded = run_campaign(small_importance_manifest(4));
  expect_bit_identical(serial, threaded);
}

TEST_F(CampaignCheckpointTest, StatusReflectsPartialLedgerWithoutExecuting) {
  const Manifest manifest = small_importance_manifest(4);
  RunOptions options;
  options.dir = dir("campaign");
  options.max_shards_this_run = 1;
  run_campaign(manifest, options);

  const CampaignResult status = campaign_status(dir("campaign"));
  EXPECT_FALSE(status.complete);
  EXPECT_EQ(status.shards_done, 1u);
  EXPECT_EQ(status.samples_done, 6u);
  // status must not have executed anything new.
  EXPECT_EQ(Checkpoint(dir("campaign")).load_ledger().size(), 1u);

  // status.json, written by the run's final coordinator tick, carries the
  // same status for outside observers.
  const auto state =
      JsonObject::parse(read_file(Checkpoint(dir("campaign")).status_path()));
  EXPECT_EQ(state.get_string("status", ""), "paused");
  EXPECT_EQ(state.get_u64("budget_used", 0), 6u);
}

TEST_F(CampaignCheckpointTest, ResumeOfCompleteCampaignIsANoOp) {
  const Manifest manifest = small_importance_manifest(4);
  RunOptions options;
  options.dir = dir("campaign");
  const CampaignResult first = run_campaign(manifest, options);
  ASSERT_TRUE(first.complete);

  const CampaignResult again = resume_campaign(options);
  expect_bit_identical(first, again);
  EXPECT_EQ(Checkpoint(dir("campaign")).load_ledger().size(),
            manifest.shard_count());
}

TEST_F(CampaignCheckpointTest, RunRefusesDirWithExistingLedger) {
  const Manifest manifest = small_importance_manifest(4);
  RunOptions options;
  options.dir = dir("campaign");
  options.max_shards_this_run = 1;
  run_campaign(manifest, options);
  EXPECT_THROW(run_campaign(manifest, options), std::runtime_error);
}

// A distributed campaign can leave shards completed past a gap. Resume
// runs only the missing shards and folds the stored ones in place: shard
// 2's line is never re-run or re-appended.
TEST_F(CampaignCheckpointTest, ResumeClosesAGapWithoutRerunningPastIt) {
  const Manifest manifest = small_importance_manifest(1);
  ASSERT_EQ(manifest.shard_count(), 4u);
  const Checkpoint checkpoint(dir("gap"));
  checkpoint.init(manifest);
  checkpoint.append_ledger(run_shard(manifest, shard_spec(manifest, 0)));
  ShardResult marked = run_shard(manifest, shard_spec(manifest, 2));
  marked.wall_seconds = 12345.5;  // no real run takes this long
  checkpoint.append_ledger(marked);

  RunOptions options;
  options.dir = dir("gap");
  const CampaignResult resumed = resume_campaign(options);
  ASSERT_TRUE(resumed.complete);

  // The ledger grew by exactly shards 1 and 3, in that order.
  std::vector<std::uint64_t> appended;
  std::istringstream lines(read_file(checkpoint.ledger_path()));
  for (std::string line; std::getline(lines, line);) {
    appended.push_back(ShardResult::from_json(line).index);
  }
  EXPECT_EQ(appended, (std::vector<std::uint64_t>{0, 2, 1, 3}));
  const auto ledger = checkpoint.load_ledger();
  ASSERT_EQ(ledger.size(), 4u);
  for (std::uint64_t i = 0; i < ledger.size(); ++i) {
    EXPECT_EQ(ledger[i].index, i);
  }
  EXPECT_EQ(ledger[2].wall_seconds, 12345.5);
  expect_bit_identical(run_campaign(manifest), resumed);
}

// A hard-killed run leaves the lease of the shard it was running. Once the
// lease is older than the ttl, resume steals it like any worker would,
// runs the shard and releases it.
TEST_F(CampaignCheckpointTest, ResumeTakesOverAKilledRunsLease) {
  const Manifest manifest = small_importance_manifest(1);
  Checkpoint(dir("killed")).init(manifest);
  LeaseDir leases(dir("killed"), WorkerOptions{}.lease_ttl);
  ASSERT_TRUE(leases.try_claim(1, "dead").has_value());
  std::filesystem::last_write_time(
      leases.path_for(1), std::filesystem::file_time_type::clock::now() -
                              std::chrono::seconds(120));

  RunOptions options;
  options.dir = dir("killed");
  const CampaignResult resumed = resume_campaign(options);
  ASSERT_TRUE(resumed.complete);
  expect_bit_identical(run_campaign(manifest), resumed);
  EXPECT_TRUE(std::filesystem::is_empty(leases.dir()));
}

// Early stopping: with a loose precision target the campaign must stop
// below budget, report the savings, and still agree with the full-budget
// run within its own confidence interval (ISSUE.md acceptance criterion).
TEST_F(CampaignCheckpointTest, EarlyStopSavesBudgetAndAgreesWithFullRun) {
  Manifest manifest;
  manifest.kind = CampaignKind::kImportance;
  manifest.seed = 21;
  manifest.budget = 60;
  manifest.shard_size = 6;
  manifest.threads = 4;
  manifest.v_dd = 1.05;
  manifest.sigma_vt = 0.2;  // failures common → CI tightens fast
  manifest.with_rtn = false;
  manifest.shift[0] = 0.06;
  manifest.shift[1] = 0.06;
  manifest.target_rel_half_width = 0.5;
  manifest.min_samples = 12;

  RunOptions options;
  options.dir = dir("early");
  const CampaignResult early = run_campaign(manifest, options);
  ASSERT_TRUE(early.complete);
  EXPECT_TRUE(early.stopped_early);
  EXPECT_LT(early.samples_done, manifest.budget);
  EXPECT_EQ(early.budget_saved, manifest.budget - early.samples_done);
  EXPECT_GT(early.budget_saved, 0u);
  EXPECT_LE(early.relative_half_width, manifest.target_rel_half_width);

  // The spent/saved split is in the persisted status for its consumers.
  const auto state =
      JsonObject::parse(read_file(Checkpoint(dir("early")).status_path()));
  EXPECT_EQ(state.get_string("status", ""), "stopped_early");
  EXPECT_EQ(state.get_u64("budget_saved", 0), early.budget_saved);

  // Full-budget reference: same stream, no stopping rule.
  Manifest full_manifest = manifest;
  full_manifest.target_rel_half_width = 0.0;
  const CampaignResult full = run_campaign(full_manifest);
  ASSERT_FALSE(full.stopped_early);
  ASSERT_EQ(full.samples_done, manifest.budget);
  EXPECT_GE(full.estimate, early.ci.lo);
  EXPECT_LE(full.estimate, early.ci.hi);
}

// The array-yield kind must agree exactly with the in-process array
// estimator: same cells, same streams, just counted through the campaign.
TEST_F(CampaignCheckpointTest, ArrayCampaignMatchesRunArray) {
  Manifest manifest;
  manifest.kind = CampaignKind::kArrayYield;
  manifest.seed = 77;
  manifest.budget = 8;
  manifest.shard_size = 3;  // shards of 3, 3, 2
  manifest.threads = 2;
  manifest.sigma_vt = 0.05;

  sram::ArrayConfig config = array_config_from(manifest);
  config.num_cells = manifest.budget;
  const sram::ArrayResult reference = sram::run_array(config);

  const CampaignResult campaign = run_campaign(manifest);
  ASSERT_TRUE(campaign.complete);
  EXPECT_EQ(campaign.fails.count, manifest.budget);
  EXPECT_EQ(campaign.fails.successes, reference.rtn_only_errors);
  EXPECT_EQ(campaign.nominal_fails.successes, reference.nominal_errors);
  EXPECT_EQ(campaign.slow.successes, reference.slow_cells);
  // Mean traps per cell flows through the Welford channel.
  std::size_t total_traps = 0;
  for (const auto& cell : reference.cells) total_traps += cell.total_traps;
  EXPECT_EQ(campaign.value.count, manifest.budget);
  EXPECT_NEAR(campaign.value.mean,
              static_cast<double>(total_traps) /
                  static_cast<double>(manifest.budget),
              1e-12);
}

TEST_F(CampaignCheckpointTest, VminCampaignProducesSupplyEstimates) {
  Manifest manifest;
  manifest.kind = CampaignKind::kVmin;
  manifest.seed = 3;
  manifest.budget = 2;
  manifest.shard_size = 1;
  manifest.threads = 2;  // shard-level threads; replicas are serial inside
  manifest.v_lo = 0.7;
  manifest.v_hi = 1.1;
  manifest.resolution = 0.1;
  manifest.rtn_seeds = 1;

  const CampaignResult campaign = run_campaign(manifest);
  ASSERT_TRUE(campaign.complete);
  EXPECT_EQ(campaign.samples_done, 2u);
  // Every replica either yields an in-range V_min (Welford channel) or
  // counts as a failure (Bernoulli channel) — never silently dropped.
  EXPECT_EQ(campaign.value.count + campaign.fails.successes, 2u);
  if (campaign.value.count > 0) {
    EXPECT_GE(campaign.value.mean, manifest.v_lo);
    EXPECT_LE(campaign.value.mean, manifest.v_hi);
    EXPECT_EQ(campaign.estimate, campaign.value.mean);
  }
}

}  // namespace
}  // namespace samurai::campaign
