// The distributed campaign service (DESIGN.md §14): lease protocol,
// worker loop, coordinator, torn/concurrent checkpoint recovery — and the
// headline fault-injection test: 4 worker processes on one campaign
// directory, 3 SIGKILLed mid-run, result bit-identical to the
// uninterrupted single-process run.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/json.hpp"
#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "campaign/service/coordinator.hpp"
#include "campaign/service/lease.hpp"
#include "campaign/service/worker.hpp"
#include "util/fs.hpp"

namespace samurai::campaign {
namespace {

using Clock = std::chrono::steady_clock;

void sleep_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

class CampaignServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = (std::filesystem::temp_directory_path() /
             ("samurai_service_" + std::string(info->name()) + "_" +
              std::to_string(::getpid())))
                .string();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string dir(const std::string& leaf) const { return root_ + "/" + leaf; }

  std::string root_;
};

/// The fast nominal-only importance workload the checkpoint tests use:
/// 4 shards of 6 samples, failures common enough to exercise every
/// accumulator channel.
Manifest small_manifest() {
  Manifest manifest;
  manifest.kind = CampaignKind::kImportance;
  manifest.name = "service-test";
  manifest.seed = 21;
  manifest.budget = 24;
  manifest.shard_size = 6;
  manifest.threads = 1;
  manifest.v_dd = 1.05;
  manifest.sigma_vt = 0.12;
  manifest.with_rtn = false;
  manifest.shift[0] = 0.06;
  manifest.shift[1] = 0.06;
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

/// A synthetic ledger line (no simulation) for checkpoint-layer tests.
ShardResult make_shard(std::uint64_t index, double marker = 0.0) {
  ShardResult shard;
  shard.index = index;
  shard.samples = 1;
  shard.weighted.count = 1;
  shard.weighted.failures = index % 2;
  shard.weighted.weight_sum = 1.0;
  shard.weighted.weight_sq_sum = 1.0;
  shard.weighted.fail_weight_sum = static_cast<double>(index % 2);
  shard.weighted.fail_weight_sq_sum = static_cast<double>(index % 2);
  shard.fails.count = 1;
  shard.fails.successes = index % 2;
  shard.wall_seconds = marker;
  return shard;
}

// ---------------------------------------------------------------------------
// Lease protocol
// ---------------------------------------------------------------------------

TEST_F(CampaignServiceTest, LeaseClaimIsExclusive) {
  LeaseDir leases(dir("c"), /*ttl=*/10.0);
  const auto mine = leases.try_claim(3, "w1");
  ASSERT_TRUE(mine.has_value());
  EXPECT_EQ(mine->shard, 3u);
  EXPECT_EQ(mine->worker, "w1");
  EXPECT_FALSE(leases.try_claim(3, "w2").has_value());
  // Other shards are unaffected, and release frees the slot.
  EXPECT_TRUE(leases.try_claim(4, "w2").has_value());
  leases.release(*mine);
  EXPECT_TRUE(leases.try_claim(3, "w2").has_value());
}

TEST_F(CampaignServiceTest, ExpiredLeaseIsStolenByTheNextClaimer) {
  LeaseDir leases(dir("c"), /*ttl=*/0.05);
  ASSERT_TRUE(leases.try_claim(0, "dead").has_value());
  sleep_seconds(0.15);  // no heartbeat: the holder is presumed dead
  const auto stolen = leases.try_claim(0, "alive");
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->worker, "alive");
  EXPECT_EQ(leases.reclaimed(), 1u);
}

TEST_F(CampaignServiceTest, RenewalKeepsALeaseAliveAcrossItsTtl) {
  LeaseDir leases(dir("c"), /*ttl=*/0.2);
  auto mine = leases.try_claim(0, "w1");
  ASSERT_TRUE(mine.has_value());
  for (int beat = 0; beat < 5; ++beat) {
    sleep_seconds(0.08);  // each gap is < ttl, the sum is well past it
    ASSERT_TRUE(leases.renew(*mine));
    EXPECT_FALSE(leases.try_claim(0, "w2").has_value());
  }
  EXPECT_EQ(mine->heartbeats, 5u);
}

TEST_F(CampaignServiceTest, RenewalDetectsATheftAndReleaseSparesTheThief) {
  LeaseDir leases(dir("c"), /*ttl=*/0.05);
  auto mine = leases.try_claim(0, "stalled");
  ASSERT_TRUE(mine.has_value());
  sleep_seconds(0.15);
  const auto thief = leases.try_claim(0, "thief");
  ASSERT_TRUE(thief.has_value());
  // The stalled owner's next heartbeat must notice, and its release must
  // not delete the thief's lease out from under it.
  EXPECT_FALSE(leases.renew(*mine));
  leases.release(*mine);
  const auto observed = leases.observe();
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed.front().lease.worker, "thief");
}

TEST_F(CampaignServiceTest, ReclaimExpiredSweepsOnlyExpiredLeases) {
  LeaseDir leases(dir("c"), /*ttl=*/0.15);
  ASSERT_TRUE(leases.try_claim(0, "dead").has_value());
  sleep_seconds(0.2);
  auto live = leases.try_claim(1, "live");
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(leases.reclaim_expired(), 1u);
  const auto observed = leases.observe();
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed.front().lease.worker, "live");
}

// ---------------------------------------------------------------------------
// Checkpoint: append-only ledger, torn and concurrent writes
// ---------------------------------------------------------------------------

TEST_F(CampaignServiceTest, LedgerLoadSortsByIndexAndDropsDuplicates) {
  Manifest manifest = small_manifest();
  manifest.budget = 40;
  manifest.shard_size = 10;  // 4 shards
  Checkpoint checkpoint(dir("c"));
  checkpoint.init(manifest);
  // Completion order 2, 0, 1 — then a duplicate of 1 (a reclaimed lease
  // whose original owner also finished). First-appended line wins.
  checkpoint.append_ledger(make_shard(2));
  checkpoint.append_ledger(make_shard(0));
  checkpoint.append_ledger(make_shard(1, /*marker=*/1.0));
  checkpoint.append_ledger(make_shard(1, /*marker=*/2.0));
  const auto ledger = checkpoint.load_ledger();
  ASSERT_EQ(ledger.size(), 3u);
  EXPECT_EQ(ledger[0].index, 0u);
  EXPECT_EQ(ledger[1].index, 1u);
  EXPECT_EQ(ledger[2].index, 2u);
  EXPECT_EQ(ledger[1].wall_seconds, 1.0);  // first append won the dedupe
  // The fold covers the whole contiguous prefix.
  EXPECT_EQ(fold_ledger(manifest, ledger).shards_done, 3u);
}

TEST_F(CampaignServiceTest, IncrementalLedgerReadsMatchAFullLoad) {
  Manifest manifest = small_manifest();
  manifest.budget = 40;
  manifest.shard_size = 10;
  Checkpoint checkpoint(dir("c"));
  checkpoint.init(manifest);
  std::vector<ShardResult> seen;
  std::uint64_t offset = checkpoint.read_ledger(0, seen);  // no ledger yet
  EXPECT_EQ(offset, 0u);
  EXPECT_TRUE(seen.empty());

  checkpoint.append_ledger(make_shard(2));
  checkpoint.append_ledger(make_shard(0, /*marker=*/1.0));
  offset = checkpoint.read_ledger(offset, seen);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].index, 0u);
  EXPECT_EQ(seen[1].index, 2u);

  // A later duplicate of shard 0 loses to the line read earlier, and a
  // torn tail is left unread until a later append fences it off.
  checkpoint.append_ledger(make_shard(1));
  checkpoint.append_ledger(make_shard(0, /*marker=*/2.0));
  {
    std::ofstream out(checkpoint.ledger_path(),
                      std::ios::binary | std::ios::app);
    out << "{\"shard\": 3, \"samp";
  }
  ::testing::internal::CaptureStderr();
  offset = checkpoint.read_ledger(offset, seen);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("torn"),
            std::string::npos);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].wall_seconds, 1.0);
  EXPECT_LT(offset, std::filesystem::file_size(checkpoint.ledger_path()));

  checkpoint.append_ledger(make_shard(3));
  ::testing::internal::CaptureStderr();
  offset = checkpoint.read_ledger(offset, seen);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("malformed"),
            std::string::npos);
  EXPECT_EQ(offset, std::filesystem::file_size(checkpoint.ledger_path()));
  ::testing::internal::CaptureStderr();
  const auto full = checkpoint.load_ledger();
  ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(seen.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(seen[i].index, i);
    EXPECT_EQ(seen[i].to_json(), full[i].to_json());
  }
}

TEST_F(CampaignServiceTest, FoldStopsAtAGapLeftByADeadWorker) {
  Manifest manifest = small_manifest();
  manifest.budget = 40;
  manifest.shard_size = 10;
  Checkpoint checkpoint(dir("c"));
  checkpoint.init(manifest);
  checkpoint.append_ledger(make_shard(0));
  checkpoint.append_ledger(make_shard(2));  // shard 1 lost with its worker
  const CampaignResult folded =
      fold_ledger(manifest, checkpoint.load_ledger());
  EXPECT_EQ(folded.shards_done, 1u);
  EXPECT_EQ(folded.samples_done, 1u);
  EXPECT_FALSE(folded.complete);
}

TEST_F(CampaignServiceTest, TornTrailingLedgerLineIsIgnoredNotFolded) {
  Manifest manifest = small_manifest();
  RunOptions options;
  options.dir = dir("c");
  options.max_shards_this_run = 2;
  run_campaign(manifest, options);

  // A writer died mid-append: unterminated, truncated record.
  {
    std::ofstream out(Checkpoint(dir("c")).ledger_path(),
                      std::ios::binary | std::ios::app);
    out << "{\"shard\": 2, \"samples\": 6, \"w_cou";
  }
  ::testing::internal::CaptureStderr();
  const auto ledger = Checkpoint(dir("c")).load_ledger();
  const std::string warning = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(ledger.size(), 2u);  // the torn shard counts as not-run
  EXPECT_NE(warning.find("torn"), std::string::npos);

  // status on the damaged directory is consistent, not throwing.
  const CampaignResult status = campaign_status(dir("c"));
  EXPECT_EQ(status.shards_done, 2u);
  EXPECT_FALSE(status.complete);
}

TEST_F(CampaignServiceTest, ResumeHealsATornTailAndMatchesTheFullRun) {
  const Manifest manifest = small_manifest();
  RunOptions options;
  options.dir = dir("c");
  options.max_shards_this_run = 2;
  run_campaign(manifest, options);
  {
    std::ofstream out(Checkpoint(dir("c")).ledger_path(),
                      std::ios::binary | std::ios::app);
    out << "{\"shard\": 2, \"samples\": 6, \"w_cou";
  }

  RunOptions resume_options;
  resume_options.dir = dir("c");
  const CampaignResult resumed = resume_campaign(resume_options);
  ASSERT_TRUE(resumed.complete);
  // The torn shard was re-run; the healed ledger folds to the exact
  // uninterrupted result.
  const CampaignResult full = run_campaign(manifest);
  expect_bit_identical(full, resumed);
  expect_bit_identical(full, campaign_status(dir("c")));
}

TEST_F(CampaignServiceTest, StatusSeesAConsistentSnapshotUnderInFlightWriters) {
  Manifest manifest = small_manifest();
  manifest.budget = 60;
  manifest.shard_size = 1;  // 60 single-sample synthetic shards
  Checkpoint checkpoint(dir("c"));
  checkpoint.init(manifest);

  std::thread appender([&] {
    for (std::uint64_t i = 0; i < 60; ++i) {
      checkpoint.append_ledger(make_shard(i));
      sleep_seconds(0.0002);
    }
  });
  std::uint64_t last_seen = 0;
  while (last_seen < 60) {
    const CampaignResult status = campaign_status(dir("c"));
    EXPECT_GE(status.shards_done, last_seen);  // progress is monotone
    EXPECT_LE(status.shards_done, 60u);
    EXPECT_EQ(status.samples_done, status.shards_done);  // whole lines only
    last_seen = status.shards_done;
  }
  appender.join();
  EXPECT_EQ(campaign_status(dir("c")).shards_done, 60u);
}

TEST_F(CampaignServiceTest, ConcurrentAtomicReplacersNeverTearTheFile) {
  const std::string path = dir("c") + "/status.json";
  std::filesystem::create_directories(dir("c"));
  const std::string contents[2] = {std::string(4096, 'a'),
                                   std::string(4096, 'b')};
  write_file_atomic(path, contents[0]);

  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 50; ++i) write_file_atomic(path, contents[w % 2]);
    });
  }
  for (int i = 0; i < 200; ++i) {
    const std::string seen = read_file(path);
    ASSERT_TRUE(seen == contents[0] || seen == contents[1])
        << "torn read of " << seen.size() << " bytes";
  }
  for (auto& thread : writers) thread.join();

  // No stranded temp files: the unique-suffix temps all renamed or died.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir("c"))) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

// ---------------------------------------------------------------------------
// Worker loop and coordinator (in-process)
// ---------------------------------------------------------------------------

TEST_F(CampaignServiceTest, SingleWorkerCompletesACampaignBitIdentically) {
  const Manifest manifest = small_manifest();
  Checkpoint(dir("c")).init(manifest);

  WorkerOptions options;
  options.dir = dir("c");
  options.worker_id = "solo";
  options.lease_ttl = 10.0;
  options.poll_seconds = 0.01;
  const WorkerReport report = run_worker(options);
  EXPECT_TRUE(report.campaign_complete);
  EXPECT_FALSE(report.timed_out);
  EXPECT_EQ(report.shards_run, 4u);
  EXPECT_EQ(report.samples_run, 24u);
  EXPECT_EQ(report.leases_lost, 0u);

  expect_bit_identical(run_campaign(manifest), campaign_status(dir("c")));
  // Ledger lines carry worker attribution; no leases remain.
  for (const auto& shard : Checkpoint(dir("c")).load_ledger()) {
    EXPECT_EQ(shard.worker, "solo");
  }
  EXPECT_TRUE(LeaseDir(dir("c"), 10.0).observe().empty());
}

TEST_F(CampaignServiceTest, TwoConcurrentWorkersSplitTheCampaign) {
  const Manifest manifest = small_manifest();
  Checkpoint(dir("c")).init(manifest);

  WorkerReport reports[2];
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      WorkerOptions options;
      options.dir = dir("c");
      options.worker_id = "w" + std::to_string(w);
      options.lease_ttl = 10.0;
      options.poll_seconds = 0.01;
      reports[w] = run_worker(options);
    });
  }
  for (auto& thread : threads) thread.join();

  // Leases kept the split disjoint: every shard ran exactly once.
  EXPECT_EQ(reports[0].shards_run + reports[1].shards_run, 4u);
  EXPECT_EQ(reports[0].leases_lost + reports[1].leases_lost, 0u);
  expect_bit_identical(run_campaign(manifest), campaign_status(dir("c")));
}

TEST_F(CampaignServiceTest, EarlyStopDecisionMatchesSingleProcess) {
  // The stopping rule is part of the fold, so a distributed campaign must
  // stop at the same shard — surplus shards claimed by racing workers are
  // excluded from the fold exactly as if they had never run.
  Manifest manifest = small_manifest();
  manifest.budget = 60;
  manifest.shard_size = 6;
  manifest.sigma_vt = 0.2;  // failures common -> CI tightens fast
  manifest.target_rel_half_width = 0.5;
  manifest.min_samples = 12;
  Checkpoint(dir("c")).init(manifest);

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      WorkerOptions options;
      options.dir = dir("c");
      options.worker_id = "w" + std::to_string(w);
      options.lease_ttl = 10.0;
      options.poll_seconds = 0.01;
      run_worker(options);
    });
  }
  for (auto& thread : threads) thread.join();

  const CampaignResult single = run_campaign(manifest);
  ASSERT_TRUE(single.stopped_early);
  const CampaignResult distributed = campaign_status(dir("c"));
  EXPECT_TRUE(distributed.stopped_early);
  expect_bit_identical(single, distributed);
}

TEST_F(CampaignServiceTest, CoordinatorReclaimsExpiredLeasesAndPublishes) {
  const Manifest manifest = small_manifest();
  Checkpoint(dir("c")).init(manifest);

  // A worker died holding shard 0 — only its lease file remains.
  LeaseDir leases(dir("c"), 0.05);
  ASSERT_TRUE(leases.try_claim(0, "dead").has_value());
  sleep_seconds(0.15);

  const ServiceStatus before = coordinator_tick(dir("c"), 0.05);
  EXPECT_EQ(before.leases_reclaimed, 1u);
  EXPECT_EQ(before.leases_active, 0u);
  EXPECT_EQ(before.shards_total, 4u);
  EXPECT_EQ(before.shards_completed, 0u);
  EXPECT_FALSE(before.result.complete);

  // status.json is the machine-readable endpoint, svc_* keys included.
  const auto status_json =
      JsonObject::parse(read_file(Checkpoint(dir("c")).status_path()));
  EXPECT_EQ(status_json.get_u64("svc_shards_total", 0), 4u);
  EXPECT_EQ(status_json.get_u64("svc_leases_reclaimed", 0), 1u);
  EXPECT_EQ(status_json.get_string("status", ""), "paused");

  // After a worker finishes the campaign, a tick publishes completion.
  WorkerOptions worker;
  worker.dir = dir("c");
  worker.worker_id = "w1";
  worker.lease_ttl = 10.0;
  worker.poll_seconds = 0.01;
  run_worker(worker);
  const ServiceStatus after =
      coordinator_tick(dir("c"), 0.05, before.leases_reclaimed);
  EXPECT_TRUE(after.result.complete);
  EXPECT_EQ(after.shards_completed, 4u);
  ASSERT_EQ(after.workers.size(), 1u);
  EXPECT_EQ(after.workers.front().worker, "w1");
  EXPECT_EQ(after.workers.front().samples, 24u);
  const auto published =
      JsonObject::parse(read_file(Checkpoint(dir("c")).status_path()));
  EXPECT_EQ(published.get_string("status", ""), "complete");
  EXPECT_EQ(published.get_u64("budget_used", 0), 24u);
  EXPECT_FALSE(std::filesystem::exists(Checkpoint(dir("c")).state_path()));
}

TEST_F(CampaignServiceTest, ServeRunsUntilAWorkerFinishesTheCampaign) {
  const Manifest manifest = small_manifest();
  Checkpoint(dir("c")).init(manifest);

  std::thread worker([&] {
    WorkerOptions options;
    options.dir = dir("c");
    options.worker_id = "w1";
    options.lease_ttl = 10.0;
    options.poll_seconds = 0.01;
    run_worker(options);
  });

  ServeOptions serve;
  serve.dir = dir("c");
  serve.lease_ttl = 10.0;
  serve.poll_seconds = 0.02;
  serve.max_wall_seconds = 120.0;  // bound for CI; normally hit `complete`
  const ServiceStatus status = serve_campaign(serve);
  worker.join();
  ASSERT_TRUE(status.result.complete);
  expect_bit_identical(run_campaign(manifest), status.result);
}

// ---------------------------------------------------------------------------
// Process-level tests: the real CLI binary, fork/exec, SIGKILL
// ---------------------------------------------------------------------------

/// Start `samurai_campaign <args>` with stdout/stderr redirected to files.
/// Only async-signal-safe calls between fork and execv (the test binary is
/// multi-thread-capable; the child must not touch the C++ runtime).
pid_t spawn_cli(const std::vector<std::string>& args,
                const std::string& stdout_path,
                const std::string& stderr_path) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);
  static const std::string cli = SAMURAI_CAMPAIGN_CLI;
  argv.push_back(const_cast<char*>(cli.c_str()));
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int out = ::open(stdout_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int err = ::open(stderr_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out >= 0) ::dup2(out, STDOUT_FILENO);
  if (err >= 0) ::dup2(err, STDERR_FILENO);
  ::execv(cli.c_str(), argv.data());
  ::_exit(127);  // exec failed
}

/// waitpid with a deadline; returns the raw wait status, or nullopt (and
/// SIGKILLs the child) if it failed to exit in time.
std::optional<int> wait_exit(pid_t pid, double timeout_seconds) {
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(timeout_seconds);
  for (;;) {
    int status = 0;
    const pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid) return status;
    if (got < 0) return std::nullopt;
    if (Clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return std::nullopt;
    }
    sleep_seconds(0.01);
  }
}

std::string slurp_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CampaignServiceCliTest : public CampaignServiceTest {
 protected:
  /// Run the CLI to completion; returns its exit code (or -1 on timeout /
  /// abnormal death) with the captured streams in out_/err_.
  int run_cli(const std::vector<std::string>& args) {
    const std::string out_path = root_ + "/cli.out";
    const std::string err_path = root_ + "/cli.err";
    const pid_t pid = spawn_cli(args, out_path, err_path);
    if (pid < 0) return -1;
    const auto status = wait_exit(pid, 120.0);
    out_ = slurp_or_empty(out_path);
    err_ = slurp_or_empty(err_path);
    if (!status || !WIFEXITED(*status)) return -1;
    return WEXITSTATUS(*status);
  }

  std::string out_;
  std::string err_;
};

TEST_F(CampaignServiceCliTest, NoArgumentsExitsNonZeroWithUsageOnStderr) {
  EXPECT_EQ(run_cli({}), 2);
  EXPECT_NE(err_.find("usage:"), std::string::npos);
  EXPECT_TRUE(out_.empty());
}

TEST_F(CampaignServiceCliTest, UnknownSubcommandExitsNonZeroWithUsage) {
  EXPECT_EQ(run_cli({"frobnicate", "--dir", dir("c")}), 2);
  EXPECT_NE(err_.find("unknown command 'frobnicate'"), std::string::npos);
  EXPECT_NE(err_.find("usage:"), std::string::npos);
}

TEST_F(CampaignServiceCliTest, WorkAndServeRequireADirectory) {
  EXPECT_EQ(run_cli({"work"}), 2);
  EXPECT_NE(err_.find("usage:"), std::string::npos);
  EXPECT_EQ(run_cli({"serve"}), 2);
  EXPECT_NE(err_.find("usage:"), std::string::npos);
  EXPECT_EQ(run_cli({"init"}), 2);
}

TEST_F(CampaignServiceCliTest, NonPositiveLeaseTtlIsRejected) {
  EXPECT_EQ(run_cli({"work", "--dir", dir("c"), "--lease-ttl", "0"}), 1);
  EXPECT_NE(err_.find("positive"), std::string::npos);
  EXPECT_EQ(run_cli({"serve", "--dir", dir("c"), "--lease-ttl", "-3"}), 1);
  EXPECT_NE(err_.find("positive"), std::string::npos);
  EXPECT_EQ(run_cli({"work", "--dir", dir("c"), "--poll", "nan"}), 1);
}

TEST_F(CampaignServiceCliTest, UnusableWorkerIdIsRejected) {
  EXPECT_EQ(run_cli({"work", "--dir", dir("c"), "--worker-id", "a b"}), 1);
  EXPECT_NE(err_.find("worker-id"), std::string::npos);
  EXPECT_EQ(run_cli({"work", "--dir", dir("c"), "--worker-id", "a\"b"}), 1);
  EXPECT_NE(err_.find("worker-id"), std::string::npos);
}

// Count flags are unsigned: a negative value is an error naming the flag,
// and nothing is written — not a wrapped 2^64-scale count.
TEST_F(CampaignServiceCliTest, NegativeCountFlagsAreRejectedBeforeAnyWrite) {
  const std::string d = dir("c");
  EXPECT_EQ(run_cli({"run", "--dir", d, "--samples", "12", "--shard", "-1"}),
            2);
  EXPECT_NE(err_.find("--shard"), std::string::npos);
  EXPECT_EQ(run_cli({"init", "--dir", d, "--samples", "-12"}), 2);
  EXPECT_NE(err_.find("--samples"), std::string::npos);
  EXPECT_EQ(run_cli({"run", "--dir", d, "--samples", "12", "--shard", "4",
                     "--max-shards", "-1"}),
            1);
  EXPECT_NE(err_.find("--max-shards"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(d));

  Checkpoint(d).init(small_manifest());
  EXPECT_EQ(run_cli({"work", "--dir", d, "--max-shards", "-2"}), 1);
  EXPECT_NE(err_.find("--max-shards"), std::string::npos);
  EXPECT_FALSE(Checkpoint(d).has_ledger());
  // Zero keeps its meaning: a validation error for a shard size...
  EXPECT_EQ(run_cli({"init", "--dir", dir("z"), "--shard", "0"}), 2);
  EXPECT_NE(err_.find("shard_size"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(dir("z")));
}

// A shard size near 2^64 once wrapped the shard count to zero, so `run`
// and `work` polled forever; it is one shard holding the whole budget.
TEST_F(CampaignServiceCliTest, HugeShardSizeIsOneShard) {
  Manifest manifest = small_manifest();
  manifest.budget = 3;
  manifest.shard_size = std::numeric_limits<std::uint64_t>::max();
  const std::string d = dir("c");
  Checkpoint(d).init(manifest);
  EXPECT_EQ(run_cli({"work", "--dir", d, "--max-seconds", "60", "--quiet"}),
            0);
  const CampaignResult status = campaign_status(d);
  EXPECT_TRUE(status.complete);
  EXPECT_EQ(status.shards_done, 1u);
  EXPECT_EQ(status.samples_done, 3u);
}

/// The headline acceptance test (ISSUE 7): four worker processes share one
/// campaign directory; three are SIGKILLed mid-run — one of them holding
/// leases — and the survivor reclaims the expired leases, closes every
/// gap, and the folded result is bit-identical to the uninterrupted
/// single-process run. No shard is lost, none double-folded.
TEST_F(CampaignServiceCliTest, KillingThreeOfFourWorkersStillConvergesExactly) {
  Manifest manifest = small_manifest();
  manifest.budget = 96;
  manifest.shard_size = 4;  // 24 shards: plenty of claims to interleave
  const std::string d = dir("c");
  Checkpoint(d).init(manifest);

  std::vector<pid_t> workers;
  for (int w = 0; w < 4; ++w) {
    const std::string id = "w" + std::to_string(w);
    workers.push_back(spawn_cli(
        {"work", "--dir", d, "--worker-id", id, "--lease-ttl", "0.6",
         "--poll", "0.02", "--max-seconds", "240", "--quiet"},
        root_ + "/" + id + ".out", root_ + "/" + id + ".err"));
    ASSERT_GT(workers.back(), 0);
  }

  // Let the campaign get moving, then kill 3 of the 4 mid-flight.
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  while (Checkpoint(d).load_ledger().empty()) {
    ASSERT_LT(Clock::now(), deadline) << "no worker completed a shard";
    sleep_seconds(0.01);
  }
  for (int w = 0; w < 3; ++w) {
    ASSERT_EQ(::kill(workers[static_cast<size_t>(w)], SIGKILL), 0);
    int status = 0;
    ::waitpid(workers[static_cast<size_t>(w)], &status, 0);
  }

  // The survivor inherits everything: expired leases from the dead
  // workers are stolen once their ttl lapses, gaps are re-run, and the
  // worker exits 0 with the campaign complete.
  const auto survivor_status = wait_exit(workers[3], 240.0);
  ASSERT_TRUE(survivor_status.has_value()) << "surviving worker hung";
  ASSERT_TRUE(WIFEXITED(*survivor_status));
  EXPECT_EQ(WEXITSTATUS(*survivor_status), 0)
      << slurp_or_empty(root_ + "/w3.err");

  // A coordinator pass reaps any lease files the dead workers left on
  // shards they had already appended (nothing re-runs those).
  const auto reap_deadline = Clock::now() + std::chrono::seconds(30);
  ServiceStatus service = coordinator_tick(d, 0.6);
  while (!LeaseDir(d, 0.6).observe().empty() &&
         Clock::now() < reap_deadline) {
    sleep_seconds(0.1);
    service = coordinator_tick(d, 0.6, service.leases_reclaimed);
  }
  EXPECT_TRUE(LeaseDir(d, 0.6).observe().empty());

  // Bit-identical to the uninterrupted single-process run: estimate, CI,
  // accumulator state, stopping decision.
  const CampaignResult distributed = campaign_status(d);
  ASSERT_TRUE(distributed.complete);
  EXPECT_EQ(distributed.shards_done, manifest.shard_count());
  const CampaignResult reference = run_campaign(manifest);
  expect_bit_identical(reference, distributed);

  // Every shard appears exactly once in the deduplicated ledger, and the
  // published status.json agrees with the fold.
  const auto ledger = Checkpoint(d).load_ledger();
  ASSERT_EQ(ledger.size(), manifest.shard_count());
  for (std::uint64_t i = 0; i < ledger.size(); ++i) {
    EXPECT_EQ(ledger[i].index, i);
    EXPECT_FALSE(ledger[i].worker.empty());
  }
  const auto status_json =
      JsonObject::parse(read_file(Checkpoint(d).status_path()));
  EXPECT_EQ(status_json.get_u64("svc_shards_total", 0), manifest.shard_count());
  EXPECT_EQ(status_json.get_u64("svc_shards_folded", 0),
            manifest.shard_count());
  EXPECT_EQ(status_json.get_string("status", ""), "complete");
}

}  // namespace
}  // namespace samurai::campaign
