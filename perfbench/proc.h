// Child processes, CPU placement and host counters for the benchmark
// harness (Linux only: the harness drives `privelet_cli` children and
// reads /proc).
#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/resource.h>
#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "privelet/common/result.h"

namespace perfbench {

/// CLOCK_MONOTONIC in ns: every timestamp the harness takes.
std::uint64_t NowNs();

/// Aborts the run with a message on stderr (exit code 3), after killing
/// and reaping every live child.
[[noreturn]] void Die(const std::string& message);

/// The value of `result`, or Die with `what` and the error.
template <typename T>
T OrDie(privelet::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(*result);
}

inline void OrDie(const privelet::Status& status,
                  const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

/// Arms SIGALRM to kill every live child and exit (code 4) after
/// `seconds`, so a wedged run still ends within its time limit.
void StartWatchdog(unsigned seconds);

/// A spawned child that is killed and reaped when the handle dies, so no
/// error path leaves a process behind. The child also gets SIGKILL if the
/// harness dies first.
class Child {
 public:
  /// Spawns `argv` (argv[0] is the executable path). stdout goes to
  /// `stdout_fd` when >= 0; `cpu` >= 0 pins the child to that CPU.
  static Child Spawn(const std::vector<std::string>& argv, int stdout_fd,
                     int cpu);

  Child() = default;
  Child(Child&& other) noexcept : pid_(other.pid_) { other.pid_ = -1; }
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  pid_t pid() const { return pid_; }
  /// Blocks until the child exits; returns its exit code (128 + signal
  /// when killed) and fills `usage` when non-null.
  int Wait(struct rusage* usage = nullptr);
  /// SIGTERM, then SIGKILL if it has not exited within `grace_ms`; reaps.
  int Terminate(int grace_ms = 5000);

 private:
  pid_t pid_ = -1;
};

/// CPUs in this process's affinity mask, ascending.
std::vector<int> AllowedCpus();
/// Restricts the calling thread to `cpu`.
void PinSelf(int cpu);

/// Peak resident set (VmHWM) of `pid` in KiB; 0 when unreadable.
std::uint64_t VmHwmKib(pid_t pid);

/// Host-wide counters sampled before and after a run so a noisy run can
/// be told apart from a regression.
struct HostCounters {
  std::uint64_t steal_ticks = 0;
  std::uint64_t total_ticks = 0;
  double loadavg_1m = 0.0;
};
HostCounters ReadHostCounters();

/// Size in bytes of the level-`level` unified/data cache of CPU 0 (0 when
/// unknown).
std::uint64_t CacheBytes(int level);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
