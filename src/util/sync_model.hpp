#pragma once
// Synchronization model used by the lock-free primitives.
//
// The hand-rolled primitives (util/mpsc_queue.hpp, util/eventcount.hpp,
// rt/wsq.hpp) are templated on a *model* that supplies their atomics,
// fences, mutexes and condition variables. Production code instantiates
// them with RealModel below — a zero-cost passthrough to the std types, so
// codegen is identical to writing std::atomic directly. The deterministic
// model checker (src/chk) instantiates the SAME primitive code with
// chk::Model, whose types route every operation through a cooperative
// scheduler and a weak-memory simulator — the checker exercises the real
// algorithms, not reimplementations.
//
// Model concept:
//   template <class T> using atomic = ...;   // std::atomic-shaped
//   template <class T> using var    = ...;   // checked non-atomic cell
//                                            // (plain T in RealModel)
//   using mutex    = ...;                    // BasicLockable
//   using cond_var = ...;                    // wait(unique_lock<mutex>&),
//                                            // notify_one/notify_all
//   static void thread_fence(std::memory_order);
//   static void yield();                     // between two spin-wait polls

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace das {

struct RealModel {
  template <class T>
  using atomic = std::atomic<T>;
  /// Non-atomic data whose cross-thread publication rides on an adjacent
  /// atomic edge. Plain storage here; the model checker's counterpart
  /// detects unsynchronized access.
  template <class T>
  using var = T;
  using mutex = std::mutex;
  using cond_var = std::condition_variable;
  static void thread_fence(std::memory_order order) {
    std::atomic_thread_fence(order);
  }
  /// Between two polls of a spin-wait: offers the CPU to any other runnable
  /// thread (sched_yield), and returns at once when there is none. Unlike
  /// a `pause` loop it never holds a CPU that a descheduled peer needs.
  static void yield() { std::this_thread::yield(); }
};

}  // namespace das
