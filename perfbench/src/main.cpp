// perfbench: the end-to-end benchmark of the SAMURAI library.
//
//   perfbench --workload methodology --seed 7 --seconds 20 --trace 0
//             --work-dir .perfbench_run
//
// Prints one details line (configuration, host, digests of the simulated
// outputs) and, last, one result line:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer split, and the spans go to --trace-out as Chrome trace JSON.
// perfbench/README.md describes the workloads and every metric.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "campaign/json.hpp"
#include "options.hpp"
#include "system.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

bool is_workload(const std::string& name) {
  return name == "methodology" || name == "campaign_rtn" ||
         name == "campaign_batch" || name == "array_rw";
}

bool is_single_threaded(const std::string& workload) {
  return workload == "methodology";
}

namespace {

/// The process's private work directory, removed on every exit path.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

RunReport dispatch(const Context& ctx) {
  const std::string& w = ctx.options.workload;
  if (w == "methodology") return run_methodology(ctx);
  if (w == "campaign_rtn") return run_campaign(ctx, /*batched=*/false);
  if (w == "campaign_batch") return run_campaign(ctx, /*batched=*/true);
  return run_array(ctx);
}

std::string result_line(const RunReport& report) {
  samurai::campaign::JsonWriter metrics;
  for (const auto& metric : report.metrics) {
    samurai::campaign::JsonWriter one;
    one.add("value", metric.value);
    one.add("unit", metric.unit);
    metrics.add_raw(metric.name, one.str());
  }
  samurai::campaign::JsonWriter line;
  line.add("correct", report.correct);
  line.add_u64("attempted", report.attempted);
  line.add_u64("failed", report.failed);
  line.add_raw("metrics", metrics.str());
  return line.str();
}

int run(int argc, char** argv, double process_start) {
  Context ctx;
  ctx.options = parse_options(argc, argv);
  ctx.process_start = process_start;
  const std::vector<int> allowed = allowed_cpus();
  const std::size_t n = std::min<std::size_t>(4, allowed.size());
  ctx.threads = is_single_threaded(ctx.options.workload) ? 1 : n;
  ctx.cpus.assign(allowed.begin(),
                  allowed.begin() + static_cast<std::ptrdiff_t>(ctx.threads));
  pin_process(ctx.cpus);
  const WorkDir work_dir(ctx.options.work_dir + "/run-" +
                           std::to_string(::getpid()));
  ctx.run_dir = work_dir.path();

  RunReport report = dispatch(ctx);
  for (const auto& metric : report.metrics) {
    // JSON has no inf/nan: a non-finite metric is a broken measurement.
    if (!std::isfinite(metric.value)) {
      throw std::runtime_error("non-finite metric " + metric.name);
    }
  }

  auto& details = report.details;
  details.add("workload", ctx.options.workload);
  details.add_u64("seed", ctx.options.seed);
  details.add_u64("seconds", static_cast<std::uint64_t>(ctx.options.seconds));
  details.add("trace", ctx.options.trace);
  details.add_u64("nproc", allowed.size());
  details.add_u64("threads", ctx.threads);
  details.add("pinned_cores", join_cpus(ctx.cpus));
  details.add("build_type", PERFBENCH_BUILD_TYPE);
  details.add("compiler", PERFBENCH_COMPILER);
  details.add("model_reference",
              "none: the repository holds no hardware measurements, so no "
              "accuracy error is given; digests show simulated outputs are "
              "unchanged");
  if (ctx.options.trace && !ctx.options.trace_out.empty()) {
    write_chrome_trace(ctx.options.trace_out, report.spans, report.trace_origin);
    details.add("trace_file", ctx.options.trace_out);
  }
  samurai::campaign::JsonWriter wrapper;
  wrapper.add_raw("perfbench", details.str());
  std::printf("%s\n%s\n", wrapper.str().c_str(), result_line(report).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const double process_start = perfbench::now_seconds();
  try {
    return perfbench::run(argc, argv, process_start);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
