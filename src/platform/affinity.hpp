#pragma once
// Best-effort thread pinning, and the thread queries the rt watchdog uses.
//
// On the paper's platforms worker i is pinned to physical core i. In
// containers / CI the affinity mask may be restricted, so pinning failure is
// reported rather than fatal: the runtime still emulates asymmetry through
// the throttle even when threads float.

namespace das {

/// Pins the calling thread to OS cpu `os_cpu`. Returns false if the
/// platform refuses (insufficient permissions, cpu not in the allowed set).
bool pin_current_thread(int os_cpu);

/// Number of CPUs the process is allowed to run on (>=1).
int allowed_cpu_count();

/// Kernel id of the calling thread, or 0 where the platform has none.
int current_thread_id();

/// Whether thread `tid` of this process is runnable: on a CPU, or waiting
/// on a run queue for one. False where that cannot be told (tid 0, a
/// platform without /proc/self/task, an unreadable file).
bool thread_runnable(int tid);

}  // namespace das
