// Command line of the perfbench executable. Every flag is declared here;
// an unknown flag, a missing value or a malformed one exits 2 with usage.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
  std::string workload;          ///< methodology | campaign_rtn | ...
  std::uint64_t seed = 0;        ///< workload seed: all inputs derive from it
  int seconds = 0;               ///< measured time per run
  bool trace = false;            ///< false: end-to-end run; true: traced split
  std::string work_dir;          ///< where runs keep campaign checkpoints
  std::string trace_out;         ///< Chrome trace-event file (trace runs)
};

/// Parse argv or exit 2 with usage on stderr.
Options parse_options(int argc, char** argv);

}  // namespace perfbench
