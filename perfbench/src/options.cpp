#include "options.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string_view>

#include "workloads.hpp"

namespace perfbench {

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE]\n"
               "  NAME: methodology | campaign_rtn | campaign_batch | "
               "array_rw\n"
               "  N: unsigned 64-bit workload seed; S: 1..600\n",
               error.c_str());
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (text.empty() || ec != std::errc() || ptr != last) {
    usage("malformed value '" + text + "' for " + flag);
  }
  return value;
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options options;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (!seen.insert(flag).second) usage("repeated flag " + flag);
    if (flag == "--workload") {
      if (!is_workload(value)) usage("unknown workload '" + value + "'");
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_number<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = parse_number<int>(flag, value);
      if (options.seconds < 1 || options.seconds > 600) {
        usage("--seconds must be in 1..600");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      if (value.empty()) usage("empty --work-dir");
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      if (value.empty()) usage("empty --trace-out");
      options.trace_out = value;
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--work-dir"}) {
    if (seen.count(required) == 0) usage(std::string("missing ") + required);
  }
  return options;
}

}  // namespace perfbench
