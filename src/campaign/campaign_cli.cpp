// samurai_campaign — sharded, checkpointable Monte-Carlo yield campaigns.
//
//   samurai_campaign run    --dir out/ [--manifest m.json | flags...]
//   samurai_campaign resume --dir out/ [--max-shards K]
//   samurai_campaign status --dir out/
//   samurai_campaign init   --dir out/ [--manifest m.json | flags...]
//   samurai_campaign work   --dir out/ [--worker-id ID] [--lease-ttl S]
//   samurai_campaign serve  --dir out/ [--lease-ttl S] [--watch]
//
// `run` starts a campaign described by a manifest file or by flags
// (--kind importance|array-yield|vmin, --samples, --shard, --batch,
// --seed, --threads, --target-rhw, --min-samples, --node, --vdd, --bits,
// --scale, --sigma-vt, --shift, --rtn-seeds, --v-lo, --v-hi,
// --resolution, --nominal-only, --slow-as-fail, --name, --rows, --cols).
// --rows/--cols pin the array-yield cell population to an R×C footprint;
// non-positive values are rejected with usage (exit 2). So is any option
// no subcommand reads, such as a typo or the retired --activity. A
// negative value for any count flag is an error naming the flag, before
// anything is written. --batch K > 1 runs nominal-only importance samples
// through the lock-step batched transient engine, K lanes at a time
// (requires --nominal-only). With --dir, `run` is `init` plus
// `resume`, and `resume` is one in-process worker plus one coordinator
// tick, so it shares the directory's shards with any `work` processes;
// without --dir the campaign runs in memory (no checkpoint, no resume).
// Every subcommand ends with one machine-readable JSON summary line on
// stdout.
//
// The distributed service (DESIGN.md §14): `init` writes the manifest
// without running anything; any number of `work` processes then lease
// shards out of the shared directory and append results; `serve` reaps
// expired leases, folds progress and publishes status.json (`--watch`
// adds a live per-worker view). Errors and usage go to stderr; exit is
// non-zero whenever the requested command could not run.
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "campaign/checkpoint.hpp"
#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "campaign/service/coordinator.hpp"
#include "campaign/service/worker.hpp"
#include "util/cli.hpp"
#include "util/fs.hpp"

using namespace samurai;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: samurai_campaign run    --dir DIR [--manifest FILE | "
               "--kind importance|array-yield|vmin --samples N --shard S\n"
               "                               [--rows R --cols C] ...]\n"
               "       samurai_campaign resume --dir DIR [--max-shards K]\n"
               "       samurai_campaign status --dir DIR\n"
               "       samurai_campaign init   --dir DIR [--manifest FILE | "
               "flags as for run]\n"
               "       samurai_campaign work   --dir DIR [--worker-id ID] "
               "[--lease-ttl S] [--poll S] [--max-shards K] [--max-seconds S]\n"
               "       samurai_campaign serve  --dir DIR [--lease-ttl S] "
               "[--poll S] [--max-seconds S] [--watch]\n");
  return 2;
}

campaign::Manifest manifest_from_flags(const util::Cli& cli) {
  campaign::Manifest manifest;
  manifest.kind =
      campaign::kind_from_string(cli.get_string("kind", "importance"));
  manifest.name = cli.get_string("name", campaign::to_string(manifest.kind));
  manifest.seed = cli.get_seed("seed", 31);
  manifest.budget = cli.get_u64("samples", 1000);
  manifest.shard_size = cli.get_u64("shard", 100);
  manifest.batch = static_cast<std::uint64_t>(cli.get_count("batch", 1));
  manifest.threads = cli.get_u64("threads", 1);
  manifest.target_rel_half_width = cli.get_double("target-rhw", 0.0);
  manifest.confidence_z = cli.get_double("confidence-z", manifest.confidence_z);
  manifest.min_samples = cli.get_u64("min-samples", 0);
  manifest.node = cli.get_string("node", "90nm");
  manifest.v_dd = cli.get_double("vdd", 0.0);
  manifest.bits = cli.get_string("bits", "10");
  manifest.rtn_scale = cli.get_double("scale", 30.0);
  manifest.extra_node_cap = cli.get_double("node-cap", 40e-15);
  manifest.period = cli.get_double("period", 1e-9);
  manifest.sigma_vt = cli.get_double("sigma-vt", 0.03);
  // --shift biases the write-critical pass gates M1/M2 (the ladder the
  // importance bench uses); --shift-mK sets one device explicitly.
  const double shift = cli.get_double("shift", 0.0);
  if (shift != 0.0) manifest.shift[0] = manifest.shift[1] = shift;
  for (int m = 1; m <= 6; ++m) {
    manifest.shift[static_cast<size_t>(m - 1)] = cli.get_double(
        "shift-m" + std::to_string(m),
        manifest.shift[static_cast<size_t>(m - 1)]);
  }
  manifest.count_slow_as_fail = cli.has("slow-as-fail");
  manifest.with_rtn = !cli.has("nominal-only");
  manifest.v_lo = cli.get_double("v-lo", manifest.v_lo);
  manifest.v_hi = cli.get_double("v-hi", manifest.v_hi);
  manifest.resolution = cli.get_double("resolution", manifest.resolution);
  manifest.rtn_seeds = cli.get_u64("rtn-seeds", 1);
  // --rows/--cols pin the array-yield cell population to an R×C footprint;
  // get_count rejects non-positive values loudly.
  if (cli.has("rows")) {
    manifest.rows = static_cast<std::uint64_t>(cli.get_count("rows", 1));
  }
  if (cli.has("cols")) {
    manifest.cols = static_cast<std::uint64_t>(cli.get_count("cols", 1));
  }
  return manifest;
}

/// The manifest `run` and `init` start from: --manifest FILE, or the
/// flags, validated. A bad one is reported and comes back empty.
std::optional<campaign::Manifest> load_manifest(const util::Cli& cli) {
  try {
    campaign::Manifest manifest =
        cli.has("manifest")
            ? campaign::Manifest::from_json(
                  campaign::read_file(cli.get_string("manifest", "")))
            : manifest_from_flags(cli);
    manifest.validate();
    return manifest;
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "samurai_campaign: %s\n", error.what());
    return std::nullopt;
  }
}

void print_summary(const campaign::CampaignResult& result) {
  std::printf(
      "campaign '%s' (%s): %s — %llu/%llu samples in %llu shards, "
      "wall %.2f s\n",
      result.manifest.name.c_str(),
      campaign::to_string(result.manifest.kind).c_str(),
      result.stopped_early ? "stopped early (CI target met)"
      : result.complete    ? "complete"
                           : "paused",
      static_cast<unsigned long long>(result.samples_done),
      static_cast<unsigned long long>(result.manifest.budget),
      static_cast<unsigned long long>(result.shards_done),
      result.wall_seconds);
  std::printf("  estimate %.6g  (std err %.3g, z=%.2f CI [%.6g, %.6g], "
              "rel half-width %.3g, ESS %.1f)\n",
              result.estimate, result.standard_error,
              result.manifest.confidence_z, result.ci.lo, result.ci.hi,
              result.relative_half_width, result.effective_sample_size);
  if (result.stopped_early) {
    std::printf("  budget saved: %llu of %llu samples (%.1f%%)\n",
                static_cast<unsigned long long>(result.budget_saved),
                static_cast<unsigned long long>(result.manifest.budget),
                100.0 * static_cast<double>(result.budget_saved) /
                    static_cast<double>(result.manifest.budget));
  }
  std::printf("%s\n", result.to_json().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    try {
      // Every option some subcommand reads; any other is an error.
      cli.require_declared(
          {"dir", "max-shards", "quiet", "manifest", "kind", "name", "seed",
           "samples", "shard", "batch", "threads", "target-rhw",
           "confidence-z", "min-samples", "node", "vdd", "bits", "scale",
           "node-cap", "period", "sigma-vt", "shift", "shift-m1", "shift-m2",
           "shift-m3", "shift-m4", "shift-m5", "shift-m6", "slow-as-fail",
           "nominal-only", "v-lo", "v-hi", "resolution", "rtn-seeds", "rows",
           "cols", "worker-id", "lease-ttl", "poll", "max-seconds", "watch"});
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "samurai_campaign: %s\n", error.what());
      return usage();
    }
    if (cli.positional().empty()) return usage();
    const std::string command = cli.positional().front();
    const std::string dir = cli.get_string("dir", "");

    campaign::RunOptions options;
    options.dir = dir;
    options.max_shards_this_run = cli.get_u64("max-shards", 0);
    options.progress = cli.has("quiet") ? nullptr : &std::cerr;

    if (command == "run") {
      const auto manifest = load_manifest(cli);
      if (!manifest) return usage();
      if (dir.empty()) {
        std::fprintf(stderr, "samurai_campaign: no --dir given; running "
                             "without checkpoints (resume unavailable)\n");
      }
      print_summary(campaign::run_campaign(*manifest, options));
      return 0;
    }
    if (command == "resume") {
      if (dir.empty()) return usage();
      print_summary(campaign::resume_campaign(options));
      return 0;
    }
    if (command == "status") {
      if (dir.empty()) return usage();
      print_summary(campaign::campaign_status(dir));
      return 0;
    }
    if (command == "init") {
      if (dir.empty()) return usage();
      const auto manifest = load_manifest(cli);
      if (!manifest) return usage();
      campaign::Checkpoint(dir).init(*manifest);
      std::printf("%s\n", manifest->to_json().c_str());
      return 0;
    }
    if (command == "work") {
      if (dir.empty()) return usage();
      campaign::WorkerOptions worker;
      worker.dir = dir;
      worker.worker_id = cli.get_string("worker-id", "");
      if (worker.worker_id.empty()) {
        worker.worker_id = util::default_worker_id();
      }
      worker.lease_ttl =
          cli.get_positive_double("lease-ttl", worker.lease_ttl);
      worker.poll_seconds = cli.get_positive_double("poll", worker.poll_seconds);
      worker.max_shards = options.max_shards_this_run;
      worker.max_wall_seconds = cli.get_double("max-seconds", 0.0);
      worker.progress = cli.has("quiet") ? nullptr : &std::cerr;
      const campaign::WorkerReport report = campaign::run_worker(worker);
      std::printf("%s\n", report.to_json().c_str());
      return report.timed_out ? 4 : 0;
    }
    if (command == "serve") {
      if (dir.empty()) return usage();
      campaign::ServeOptions serve;
      serve.dir = dir;
      serve.lease_ttl = cli.get_positive_double("lease-ttl", serve.lease_ttl);
      serve.poll_seconds =
          cli.get_positive_double("poll", serve.poll_seconds);
      serve.max_wall_seconds = cli.get_double("max-seconds", 0.0);
      serve.watch = cli.has("watch");
      serve.out = cli.has("quiet") ? nullptr : &std::cerr;
      const campaign::ServiceStatus status = campaign::serve_campaign(serve);
      std::printf("%s\n", status.to_json().c_str());
      print_summary(status.result);
      return status.result.complete ? 0 : 4;
    }
    std::fprintf(stderr, "samurai_campaign: unknown command '%s'\n",
                 command.c_str());
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "samurai_campaign: %s\n", error.what());
    return 1;
  }
}
