// Fail-stop fault tolerance for the threaded runtime (paper-repro
// robustness layer; the sim engine's counterpart lives in sim/engine.cpp).
//
// One watchdog thread per runtime, spawned only when RtOptions carries a
// fault plan or enable_watchdog. Each tick (watchdog_period_s) it
//
//   1. arms due plan events: kFreeze publishes an absolute thaw time the
//      worker honours at its next loop top; kFail asks the worker to
//      quarantine itself — cooperatively, at a loop top, never mid-task, so
//      rt fail-stop loses only QUEUED work, never in-flight participations;
//   2. scans for wedged workers: a worker whose heartbeat has not moved for
//      kWedgeGraceTicks while it is neither parked, nor frozen, nor inside
//      a progress round (in_round) is presumed dead and force-retired.
//      A silent tick counts only once the worker has reached its first
//      loop top (heartbeat > 0) and while its thread is not runnable: a
//      worker the OS has not run yet, or keeps off a CPU although it could
//      run (platform/affinity.hpp, thread_runnable), is descheduled, not
//      wedged, so that tick neither counts nor resets. Where the thread
//      state cannot be read, every silent tick of a started worker counts.
//      in_round is what makes the takeover sound: every queue pop happens
//      under in_round == true, so a worker eligible for force-retirement
//      provably holds no pop, and the watchdog can become the sole consumer
//      of its MPSC channels without a second-consumer race. A false
//      positive (an OS-descheduled worker) is merely conservative — the
//      worker retires at its next loop top and its work ran elsewhere.
//      The scan never retires the last worker the fault plan spares: with
//      no survivor the pool could not run another task;
//   3. drains retired workers' channels — every tick, not once, because a
//      producer that read dead_[c] == false just before the flip may still
//      land a task there. Undistributed tasks (inbox/feeder/WSQ) re-home
//      via a fresh wake-up; committed participations (AQ) become "wounded"
//      records;
//   4. polls wounded tasks: once departures + lost == width, no live
//      participant of the doomed attempt remains, so the watchdog — the
//      single requeuer by construction — resets the record and re-wakes it.
//
// Completion stays exactly-once: the doomed attempt can never fire
// finish_last (departures is short of width by exactly `lost`), and only
// the watchdog requeues, so the task enters its finisher's completion tally
// (and so its job's outstanding count) once, on the attempt that runs to
// full width. A worker flushes its tally at every loop top while faults are
// armed, so a retiring, wedging or freezing worker holds no count.

#include <algorithm>
#include <chrono>
#include <thread>

#include "platform/affinity.hpp"
#include "rt/runtime.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace das::rt {

namespace {

/// Watchdog ticks a silent (no heartbeat), unparked, out-of-round worker is
/// given before it is presumed wedged. Generous on purpose: the only cost
/// of waiting longer is detection latency, while a premature takeover of a
/// merely descheduled worker retires it for the rest of the run.
constexpr int kWedgeGraceTicks = 20;

}  // namespace

void Runtime::inject_worker_wedge(int core) {
  DAS_CHECK(core >= 0 && core < topo_->num_cores());
  DAS_CHECK_MSG(faults_armed_,
                "inject_worker_wedge needs the watchdog (RtOptions::"
                "enable_watchdog or a non-empty fault plan)");
  Worker& w = *workers_[static_cast<std::size_t>(core)];
  w.fault_state.store(kWedgeRequested, std::memory_order_release);
  w.ec.notify();
}

int Runtime::live_worker_after(int from) const {
  const int n = topo_->num_cores();
  for (int off = 0; off < n; ++off) {
    const int c = (from + off) % n;
    if (!worker_dead(c)) return c;
  }
  DAS_CHECK_MSG(false, "fault plan retired every worker; no survivor left");
  return 0;
}

void Runtime::quarantine_self(int core) {
  Worker& self = *workers_[static_cast<std::size_t>(core)];
  // The release store is the handoff: everything this worker did to its
  // queues happens-before the watchdog's acquire of kQuarantined, after
  // which the watchdog is their sole consumer. The thread then simply
  // exits; join in ~Runtime is unchanged.
  self.fault_state.store(kQuarantined, std::memory_order_release);
}

void Runtime::wedge_self() {
  // Injected wedge: stay alive but silent — no heartbeat, no consumption,
  // no ack — so the watchdog must prove the failure from the outside.
  while (!shutdown_.load(std::memory_order_seq_cst))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void Runtime::freeze_self(int core, std::int64_t thaw_ns) {
  // Transient freeze: the worker stalls (its queues intentionally stall
  // with it — a bounded hiccup, not a failure) but keeps heartbeating so
  // the wedge scan never confuses a freeze with a death.
  Worker& self = *workers_[static_cast<std::size_t>(core)];
  while (!shutdown_.load(std::memory_order_seq_cst) && now_ns() < thaw_ns) {
    self.heartbeat.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void Runtime::requeue_task(TaskRec* task) {
  // No live participant of the doomed attempt remains (departures + lost ==
  // width) and the watchdog is the only requeuer, so these plain resets
  // race with nobody. has_fixed_place is cleared so the policy re-molds
  // against the shrunken pool.
  task->arrivals.store(0, std::memory_order_relaxed);
  task->departures.store(0, std::memory_order_relaxed);
  task->max_busy_ns.store(0, std::memory_order_relaxed);
  task->has_fixed_place = false;
  tasks_reexecuted_.fetch_add(1, std::memory_order_relaxed);
  wake_task(task, live_worker_after(0), /*caller_is_worker=*/false);
}

void Runtime::drain_worker(int core, std::vector<Wounded>& wounded) {
  Worker& w = *workers_[static_cast<std::size_t>(core)];
  const auto rehome = [&](TaskRec* t) {
    // Queued but never distributed: nothing of it ran, so a fresh wake-up
    // is exact re-homing (not a re-execution). A fixed place that touches a
    // retired worker is cleared so the policy decides anew.
    if (t->has_fixed_place) {
      for (int i = 0; i < t->place.width; ++i) {
        if (worker_dead(t->place.leader + i)) {
          t->has_fixed_place = false;
          break;
        }
      }
    }
    wake_task(t, live_worker_after(core), /*caller_is_worker=*/false);
  };
  while (auto* t = static_cast<TaskRec*>(w.inbox.pop())) rehome(t);
  while (auto* t = static_cast<TaskRec*>(w.feeder.pop())) rehome(t);
  while (TaskRec* t = w.wsq.steal_top()) rehome(t);
  while (auto* t = static_cast<TaskRec*>(w.aq.pop())) {
    // A committed participation: the assembly is doomed, count the slot
    // lost. One task can lose several slots (multiple dead participants),
    // so aggregate per task.
    const auto it = std::find_if(wounded.begin(), wounded.end(),
                                 [&](const Wounded& e) { return e.task == t; });
    if (it == wounded.end()) {
      wounded.push_back(Wounded{t, 1});
    } else {
      ++it->lost;
    }
  }
}

void Runtime::poll_wounded(std::vector<Wounded>& wounded) {
  for (std::size_t i = 0; i < wounded.size();) {
    TaskRec* t = wounded[i].task;
    const int width = t->place.width;
    const int departed = t->departures.load(std::memory_order_acquire);
    DAS_ASSERT(departed + wounded[i].lost <= width);
    if (departed + wounded[i].lost == width) {
      // The acquire above synchronizes with the last live departure, so
      // the resets in requeue_task happen-after every participant's writes.
      requeue_task(t);
      wounded[i] = wounded.back();
      wounded.pop_back();
    } else {
      ++i;
    }
  }
}

void Runtime::watchdog_loop() {
  const int n = topo_->num_cores();
  const auto& plan = options_.faults.events;  // resolve_faults sorts by t_s
  std::size_t next = 0;
  std::vector<Wounded> wounded;
  std::vector<std::uint64_t> last_hb(static_cast<std::size_t>(n), 0);
  std::vector<int> stale_ticks(static_cast<std::size_t>(n), 0);
  // Per-worker retirement progress: 0 healthy, 1 retirement issued (waiting
  // for the ack), 2 queues taken over (dead_ flipped; drained every tick).
  std::vector<int> retire(static_cast<std::size_t>(n), 0);
  // Workers the plan will fail-stop do not count as survivors. `spared`
  // counts the others that are not retired yet.
  std::vector<bool> doomed(static_cast<std::size_t>(n), false);
  int spared = n;
  for (const CoreFault& f : plan) {
    const std::size_t fc = static_cast<std::size_t>(f.core);
    if (f.kind == CoreFault::Kind::kFail && !doomed[fc]) {
      doomed[fc] = true;
      --spared;
    }
  }

  while (!shutdown_.load(std::memory_order_seq_cst)) {
    const double now_s = ns_to_s(now_ns() - epoch_ns_);

    // 1. Arm due plan events.
    while (next < plan.size() && plan[next].t_s <= now_s) {
      const CoreFault& f = plan[next++];
      Worker& w = *workers_[static_cast<std::size_t>(f.core)];
      if (f.kind == CoreFault::Kind::kFreeze) {
        w.freeze_until_ns.store(epoch_ns_ + s_to_ns(f.until_s),
                                std::memory_order_release);
        w.ec.notify();  // a parked worker wakes, observes, stalls
      } else if (retire[static_cast<std::size_t>(f.core)] == 0) {
        w.fault_state.store(kQuarantineRequested, std::memory_order_release);
        w.ec.notify();
        retire[static_cast<std::size_t>(f.core)] = 1;
        workers_failed_.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // 2. Wedge scan (see file comment for why in_round makes this sound).
    for (int c = 0; c < n; ++c) {
      const std::size_t ci = static_cast<std::size_t>(c);
      if (retire[ci] != 0) continue;
      Worker& w = *workers_[ci];
      const std::uint64_t hb = w.heartbeat.load(std::memory_order_relaxed);
      if (hb != last_hb[ci] || w.parked.load(std::memory_order_acquire) ||
          w.in_round.load(std::memory_order_acquire)) {
        last_hb[ci] = hb;
        stale_ticks[ci] = 0;
        continue;
      }
      if (hb == 0 ||
          thread_runnable(worker_tids_[ci].load(std::memory_order_acquire)))
        continue;  // not started, or descheduled: not wedged
      stale_ticks[ci] = std::min(stale_ticks[ci] + 1, kWedgeGraceTicks);
      if (stale_ticks[ci] < kWedgeGraceTicks) continue;
      // The last spared worker is never presumed wedged: it stays due and
      // is looked at again next tick.
      if (!doomed[ci]) {
        if (spared == 1) continue;
        --spared;
      }
      // Presumed wedged: it will never ack, take the queues directly.
      w.fault_state.store(kQuarantined, std::memory_order_seq_cst);
      dead_[ci].store(true, std::memory_order_seq_cst);
      retire[ci] = 2;
      workers_failed_.fetch_add(1, std::memory_order_relaxed);
    }

    // 3. Take over acked retirements; drain every retired worker. The
    //    drain repeats each tick because a producer that sampled dead_[c]
    //    just before the flip may still push one more task there.
    for (int c = 0; c < n; ++c) {
      const std::size_t ci = static_cast<std::size_t>(c);
      if (retire[ci] == 0) continue;
      if (retire[ci] == 1) {
        Worker& w = *workers_[ci];
        if (w.fault_state.load(std::memory_order_acquire) != kQuarantined)
          continue;  // still finishing its current task; try next tick
        dead_[ci].store(true, std::memory_order_seq_cst);
        retire[ci] = 2;
      }
      drain_worker(c, wounded);
    }

    // 4. Requeue wounded tasks whose live participants all departed.
    poll_wounded(wounded);

    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::max(options_.watchdog_period_s, 1e-5)));
  }
}

}  // namespace das::rt
