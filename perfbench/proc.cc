#include "proc.h"

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {
namespace {

// Live children, so that Die() and the watchdog can stop them. A fixed
// array: the watchdog reads it from a signal handler.
constexpr int kMaxChildren = 16;
volatile pid_t g_children[kMaxChildren] = {};

void Track(pid_t pid) {
  for (volatile pid_t& slot : g_children) {
    if (slot == 0) {
      slot = pid;
      return;
    }
  }
}

void Untrack(pid_t pid) {
  for (volatile pid_t& slot : g_children) {
    if (slot == pid) slot = 0;
  }
}

extern "C" void OnWatchdog(int) {
  static const char kMsg[] = "perfbench: run exceeded its time limit\n";
  (void)!write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  for (volatile pid_t& slot : g_children) {
    if (slot > 0) kill(slot, SIGKILL);
  }
  _exit(4);
}

}  // namespace

void StartWatchdog(unsigned seconds) {
  signal(SIGALRM, OnWatchdog);
  alarm(seconds);
}

std::uint64_t NowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stderr);
  for (volatile pid_t& slot : g_children) {
    const pid_t pid = slot;
    if (pid <= 0) continue;
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    slot = 0;
  }
  std::exit(3);
}

Child Child::Spawn(const std::vector<std::string>& argv, int stdout_fd,
                   int cpu) {
  // Everything the child touches is prepared before vfork: between vfork
  // and exec it only makes system calls.
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) CPU_SET(cpu, &set);
  const pid_t parent = getpid();
  const pid_t pid = vfork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(126);
    if (cpu >= 0) sched_setaffinity(0, sizeof(set), &set);
    if (stdout_fd >= 0) dup2(stdout_fd, STDOUT_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  if (pid < 0) Die("cannot spawn " + argv[0]);
  Track(pid);
  Child child;
  child.pid_ = pid;
  return child;
}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    if (pid_ > 0) Terminate(0);
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

Child::~Child() {
  if (pid_ > 0) Terminate(0);
}

int Child::Wait(struct rusage* usage) {
  if (pid_ <= 0) return -1;
  int status = 0;
  struct rusage local;
  pid_t r;
  do {
    r = wait4(pid_, &status, 0, usage != nullptr ? usage : &local);
  } while (r < 0 && errno == EINTR);
  Untrack(pid_);
  pid_ = -1;
  if (r < 0) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + WTERMSIG(status);
}

int Child::Terminate(int grace_ms) {
  if (pid_ <= 0) return -1;
  if (grace_ms > 0) {
    kill(pid_, SIGTERM);
    const std::uint64_t deadline =
        NowNs() + static_cast<std::uint64_t>(grace_ms) * 1'000'000ull;
    while (NowNs() < deadline) {
      int status = 0;
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        Untrack(pid_);
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status)
                                 : 128 + WTERMSIG(status);
      }
      usleep(1000);
    }
  }
  kill(pid_, SIGKILL);
  return Wait();
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void PinSelf(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::uint64_t VmHwmKib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

HostCounters ReadHostCounters() {
  HostCounters c;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // aggregate "cpu" line
  std::uint64_t v = 0;
  for (int field = 0; field < 10 && (stat >> v); ++field) {
    c.total_ticks += v;
    if (field == 7) c.steal_ticks = v;
  }
  std::ifstream load("/proc/loadavg");
  load >> c.loadavg_1m;
  return c;
}

std::uint64_t CacheBytes(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    int l = 0;
    if (!(level_file >> l)) break;
    std::ifstream type_file(dir + "/type");
    std::string type;
    type_file >> type;
    if (l != level || type == "Instruction") continue;
    std::ifstream size_file(dir + "/size");
    std::string size;
    size_file >> size;
    std::uint64_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (!size.empty() && size.back() == 'K') bytes <<= 10;
    if (!size.empty() && size.back() == 'M') bytes <<= 20;
    return bytes;
  }
  return 0;
}

}  // namespace perfbench
