#include "system.hpp"

#include <sched.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter carries over the peak of
  // the process image before exec (the launcher's), VmHWM does not.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void pin_process(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    const pid_t tid = static_cast<pid_t>(std::stol(entry.path().filename()));
    if (sched_setaffinity(tid, sizeof(set), &set) != 0) {
      throw std::runtime_error(std::string("sched_setaffinity failed: ") +
                               std::strerror(errno));
    }
  }
}

std::size_t live_threads() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

std::string join_cpus(const std::vector<int>& cpus) {
  std::string out;
  for (int cpu : cpus) {
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
  }
  return out;
}

}  // namespace perfbench
