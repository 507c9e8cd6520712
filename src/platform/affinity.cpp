#include "platform/affinity.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#endif

#include <thread>

namespace das {

bool pin_current_thread(int os_cpu) {
#if defined(__linux__)
  if (os_cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(os_cpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)os_cpu;
  return false;
#endif
}

int allowed_cpu_count() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
#endif
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

int current_thread_id() {
#if defined(__linux__)
  return static_cast<int>(syscall(SYS_gettid));
#else
  return 0;
#endif
}

bool thread_runnable(int tid) {
#if defined(__linux__)
  if (tid == 0) return false;
  char path[64];
  std::snprintf(path, sizeof path, "/proc/self/task/%d/stat", tid);
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  char buf[512];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // The state field follows the parenthesised name, which may hold spaces.
  const char* name_end = std::strrchr(buf, ')');
  return name_end != nullptr && name_end[1] == ' ' && name_end[2] == 'R';
#else
  (void)tid;
  return false;
#endif
}

}  // namespace das
