#pragma once
// EventCount: the "condition variable of lock-free programming".
//
// Lets a consumer park until a lock-free predicate (e.g. "some MpscQueue is
// non-empty") becomes true, without the lost-wakeup race of checking and
// then sleeping, and without producers paying a mutex on the hot path. The
// three-phase waiter protocol:
//
//     const auto key = ec.prepare_wait();   // announce intent (waiters++)
//     if (predicate()) { ec.cancel_wait(); /* consume */ }
//     else ec.commit_wait(key);             // sleep unless notified since
//
// and producers, after making the predicate true:
//
//     ec.notify();   // wakes waiters; cheap no-op when nobody is parked
//
// Memory-ordering contract — the correctness is a Dekker store/load duel:
//   producer:  W(queue)          then R(waiters_)
//   consumer:  W(waiters_)       then R(queue)
// At least one side must observe the other or a push could slip between the
// consumer's predicate check and its sleep with the producer seeing no
// waiter. Both sides therefore order their store before their load with
// sequentially-consistent operations: prepare_wait's fetch_add is a seq_cst
// RMW (a full fence on every mainstream ISA), and notify issues an explicit
// seq_cst fence between the caller's queue writes and the waiters_ load.
// The epoch bump in notify happens under mu_, and commit_wait re-evaluates
// the epoch under the same mutex inside cv_.wait — the classic
// missed-notify window between predicate check and sleep is closed by the
// mutex, the window between predicate check and prepare is closed by the
// fences.
//
// The rt engine embeds one EventCount per worker (only that worker ever
// waits on it), so notify_all degenerates to waking at most one thread.
//
// Templated on a synchronization model (util/sync_model.hpp): production
// code uses the `EventCount` alias (RealModel — std atomics, identical
// codegen); the deterministic model checker (src/chk) instantiates
// `BasicEventCount<chk::Model>` and proves the no-lost-wakeup claim by
// exhausting small-bound schedules — including that downgrading either
// seq_cst fence deadlocks a waiter (mutant mode, tests/model_check_test).

#include <atomic>
#include <cstdint>
#include <mutex>

#include "util/sync_model.hpp"

namespace das {

template <class Model = RealModel>
class BasicEventCount {
 public:
  BasicEventCount() = default;
  BasicEventCount(const BasicEventCount&) = delete;
  BasicEventCount& operator=(const BasicEventCount&) = delete;

  /// Phase 1: announce the intent to sleep and snapshot the epoch. Must be
  /// followed by exactly one cancel_wait() or commit_wait(key).
  std::uint64_t prepare_wait() {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    // Belt over the RMW's braces: the predicate loads that follow must not
    // be hoisted above the waiter announcement on any implementation.
    Model::thread_fence(std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Phase 2a: the predicate turned out true — abandon the wait.
  void cancel_wait() { waiters_.fetch_sub(1, std::memory_order_seq_cst); }

  /// Phase 2b: sleep until a notify() that started after prepare_wait().
  /// Returns immediately if one already happened (epoch moved past `key`).
  void commit_wait(std::uint64_t key) {
    std::unique_lock<typename Model::mutex> g(mu_);
    while (epoch_.load(std::memory_order_relaxed) == key) cv_.wait(g);
    g.unlock();
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Blocks until `pred()` holds: the three-phase loop above, preceded by up
  /// to `spin_polls` polls of the predicate with Model::yield() between
  /// them. Spinning first pays when the waker runs on another CPU and
  /// arrives within microseconds (a park/wake round-trip costs more than
  /// the wait itself); callers pass 0 whenever their own threads may
  /// outnumber CPUs.
  template <class Pred>
  void await(Pred&& pred, int spin_polls = 0) {
    for (int i = 0; i < spin_polls; ++i) {
      if (pred()) return;
      Model::yield();
    }
    while (!pred()) {
      const auto key = prepare_wait();
      if (pred()) {
        cancel_wait();
        return;
      }
      commit_wait(key);
    }
  }

  /// Wakes every waiter whose prepare_wait() predates this call. Callers
  /// make the predicate true FIRST; the fence below then guarantees either
  /// this call sees their waiter count, or the waiter's predicate re-check
  /// sees the new state. Fast path (no waiter): one fence + one load.
  void notify() {
    Model::thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    {
      // The epoch bump must happen under mu_: commit_wait's wait condition
      // is re-evaluated with mu_ held, so a waiter is either not yet inside
      // cv_.wait (and will see the bumped epoch) or is parked (and gets the
      // notify_all).
      std::lock_guard<typename Model::mutex> g(mu_);
      epoch_.fetch_add(1, std::memory_order_seq_cst);
    }
    cv_.notify_all();
  }

  /// Waiters currently between prepare_wait and the end of their wait.
  /// Advisory (racy) — used by tests and wake-target heuristics only.
  int waiters() const { return waiters_.load(std::memory_order_seq_cst); }

 private:
  typename Model::template atomic<std::uint64_t> epoch_{0};
  typename Model::template atomic<int> waiters_{0};
  typename Model::mutex mu_;
  typename Model::cond_var cv_;
};

/// The production instantiation every engine uses.
using EventCount = BasicEventCount<>;

}  // namespace das
