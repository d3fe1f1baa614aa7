// Campaign-service benchmark: the three hot paths of the distributed
// runtime (DESIGN.md §14), each with a correctness gate.
//
//   1. Lease protocol — claim/renew/release cycles per second on one
//      campaign directory (the per-shard coordination overhead a worker
//      pays before any simulation work happens).
//   2. Ledger appends — durable O_APPEND one-line appends per second,
//      against the rewrite-the-whole-ledger strategy the service replaced
//      (O(shards²) bytes): the measured speedup is the reason shards.jsonl
//      is append-only. Gate: the appended ledger loads back exactly.
//   3. Distributed campaign — N in-process workers sharing one directory
//      vs the single-process runner on the same manifest. Gate: the folded
//      estimate is bit-identical (the whole point of the fold contract).
//
// Emits one machine-readable JSON line. `--quick` shrinks the counts for
// use as a smoke test under `ctest -L perf`; exits non-zero if a gate
// fails.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/json.hpp"
#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "campaign/service/lease.hpp"
#include "campaign/service/worker.hpp"
#include "util/cli.hpp"

using namespace samurai;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

campaign::ShardResult synthetic_shard(std::uint64_t index) {
  campaign::ShardResult shard;
  shard.index = index;
  shard.samples = 100;
  shard.worker = "bench";
  shard.weighted.count = 100;
  shard.weighted.failures = 3;
  shard.weighted.weight_sum = 100.0;
  shard.weighted.weight_sq_sum = 100.0;
  shard.weighted.fail_weight_sum = 3.0;
  shard.weighted.fail_weight_sq_sum = 3.0;
  shard.fails.count = 100;
  shard.fails.successes = 3;
  shard.wall_seconds = 0.5;
  return shard;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool quick = cli.has("quick");
  const int lease_cycles = static_cast<int>(cli.get_count("lease-cycles", quick ? 200 : 2000));
  const int append_lines = static_cast<int>(cli.get_count("append-lines", quick ? 200 : 2000));
  const int workers = static_cast<int>(cli.get_count("workers", 4));

  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("samurai_bench_service_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  bool ok = true;

  // --- 1. lease claim/renew/release cycles -------------------------------
  double lease_cycles_per_sec = 0.0;
  {
    campaign::LeaseDir leases(root + "/lease", 30.0);
    const auto start = Clock::now();
    for (int i = 0; i < lease_cycles; ++i) {
      auto lease = leases.try_claim(static_cast<std::uint64_t>(i % 64), "b");
      if (!lease) {
        ok = false;
        break;
      }
      leases.renew(*lease);
      leases.release(*lease);
    }
    lease_cycles_per_sec = lease_cycles / seconds_since(start);
  }

  // --- 2. append-only ledger vs whole-file rewrite -----------------------
  double append_lines_per_sec = 0.0;
  double rewrite_lines_per_sec = 0.0;
  {
    campaign::Checkpoint checkpoint(root + "/append");
    std::filesystem::create_directories(checkpoint.dir());
    auto start = Clock::now();
    for (int i = 0; i < append_lines; ++i) {
      checkpoint.append_ledger(synthetic_shard(static_cast<std::uint64_t>(i)));
    }
    append_lines_per_sec = append_lines / seconds_since(start);
    const auto loaded = checkpoint.load_ledger();
    if (loaded.size() != static_cast<std::size_t>(append_lines)) ok = false;

    // The strategy this replaced: rewrite the whole ledger per shard.
    std::string ledger;
    start = Clock::now();
    for (int i = 0; i < append_lines; ++i) {
      ledger += synthetic_shard(static_cast<std::uint64_t>(i)).to_json();
      ledger += "\n";
      campaign::write_file_atomic(root + "/rewrite.jsonl", ledger);
    }
    rewrite_lines_per_sec = append_lines / seconds_since(start);
  }

  // --- 3. N workers vs the single-process runner -------------------------
  campaign::Manifest manifest;
  manifest.kind = campaign::CampaignKind::kImportance;
  manifest.name = "bench-service";
  manifest.seed = 21;
  manifest.budget = quick ? 48 : 192;
  manifest.shard_size = 4;
  manifest.threads = 1;
  manifest.v_dd = 1.05;
  manifest.sigma_vt = 0.12;
  manifest.with_rtn = false;
  manifest.shift[0] = manifest.shift[1] = 0.06;

  auto start = Clock::now();
  const campaign::CampaignResult single = run_campaign(manifest);
  const double single_wall = seconds_since(start);

  const std::string dir = root + "/campaign";
  campaign::Checkpoint(dir).init(manifest);
  start = Clock::now();
  std::vector<std::thread> crew;
  for (int w = 0; w < workers; ++w) {
    crew.emplace_back([&, w] {
      campaign::WorkerOptions options;
      options.dir = dir;
      options.worker_id = "w" + std::to_string(w);
      options.lease_ttl = 30.0;
      options.poll_seconds = 0.005;
      run_worker(options);
    });
  }
  for (auto& thread : crew) thread.join();
  const double distributed_wall = seconds_since(start);

  const campaign::CampaignResult distributed = campaign::campaign_status(dir);
  if (!distributed.complete || distributed.estimate != single.estimate ||
      distributed.ci.lo != single.ci.lo ||
      distributed.ci.hi != single.ci.hi ||
      distributed.samples_done != single.samples_done) {
    std::fprintf(stderr,
                 "bench_campaign_service: distributed fold diverged from the "
                 "single-process run\n");
    ok = false;
  }

  campaign::JsonWriter json;
  json.add("bench", "campaign_service");
  json.add("quick", quick);
  json.add("svc_lease_cycles_per_sec", lease_cycles_per_sec);
  json.add("svc_append_lines_per_sec", append_lines_per_sec);
  json.add("svc_rewrite_lines_per_sec", rewrite_lines_per_sec);
  json.add("svc_append_speedup",
           append_lines_per_sec / rewrite_lines_per_sec);
  json.add_u64("svc_workers", static_cast<std::uint64_t>(workers));
  json.add("svc_single_wall_seconds", single_wall);
  json.add("svc_distributed_wall_seconds", distributed_wall);
  json.add("svc_speedup", single_wall / distributed_wall);
  json.add("estimate", distributed.estimate);
  json.add("ok", ok);
  std::printf("%s\n", json.str().c_str());

  std::filesystem::remove_all(root);
  return ok ? 0 : 1;
}
