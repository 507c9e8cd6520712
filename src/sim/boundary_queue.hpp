#pragma once
// Bounded SPSC boundary-release queue for the conservative parallel DES.
//
// One queue per ordered rank pair (sender -> receiver) carries cross-rank
// DAG releases between per-rank event loops (sim/engine.hpp). The producer
// is the sender rank's worker thread staging releases while it processes a
// time window; the consumer is the receiver rank draining after the
// window's barrier (sim/rank_sync.hpp publishes the epochs that separate
// the two). The engine keeps one queue per rank pair and window parity, so
// a sender already staging window k+1 never pushes into the queue its
// receiver is still draining for window k.
//
// The ring itself is safe under *concurrent* producer/consumer use — slot
// payloads are published by the release store of tail_ and consumed behind
// the acquire load — so the protocol does not depend on the window barrier
// for memory safety, only for determinism (drain order must be a pure
// function of the event streams, not the thread schedule). Overflow past
// the fixed ring capacity spills to a producer-owned vector whose
// publication DOES ride the window epoch: spill_ is only touched by the
// producer between drains, and drain() may only observe it after the
// caller synchronized with the producer's arrival at the barrier. daslint's
// hot-path rules apply to push(): the ring fast path allocates nothing.
//
// Templated on the sync model (util/sync_model.hpp) so the deterministic
// model checker (src/chk) explores the REAL template: the boundary-queue
// scenarios in tests/model_check_test.cpp run this exact code under
// exhaustive schedules and catch the seeded publication mutants.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/sync_model.hpp"

namespace das::sim {

template <class T, class Model = RealModel>
class BasicBoundaryQueue {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2). The ring is
  /// sized once: steady-state cross-rank traffic allocates nothing, bursts
  /// beyond it spill (correctly, but through the slow path). Slots are
  /// constructed in place — chk::Var cells are neither movable nor
  /// copyable, so the vector is sized exactly once here.
  explicit BasicBoundaryQueue(std::size_t capacity = 256)
      : slots_(round_up_pow2(capacity)) {}

  BasicBoundaryQueue(const BasicBoundaryQueue&) = delete;
  BasicBoundaryQueue& operator=(const BasicBoundaryQueue&) = delete;

  /// Producer side. Publishes `v` to the consumer: ring fast path, spill
  /// vector once the ring is full (the consumer has not caught up within
  /// this window — it drains only at phase boundaries).
  void push(const T& v) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) == slots_.size()) {
      spill_.push_back(v);
      spill_count_ = static_cast<std::uint64_t>(spill_.size());
      return;
    }
    slots_[static_cast<std::size_t>(t) & (slots_.size() - 1)] = v;
    tail_.store(t + 1, std::memory_order_release);
  }

  /// Consumer side: invokes `fn(item)` on everything the producer pushed,
  /// ring first (push order), then the spill. The ring segment is safe
  /// against a concurrently pushing producer; observing the spill requires
  /// the caller to have synchronized with the producer's phase epoch
  /// (sim/rank_sync.hpp) — which also hands the spill storage back to the
  /// producer race-free after this returns.
  template <class Fn>
  void drain(Fn&& fn) {
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    for (; h != t; ++h)
      fn(static_cast<T>(slots_[static_cast<std::size_t>(h) & (slots_.size() - 1)]));
    head_.store(h, std::memory_order_release);
    // Reading spill_count_ (a checked cell under chk::Model) asserts the
    // caller really did synchronize with the producer's phase epoch; the
    // plain spill storage is shadowed by it.
    const auto spilled =
        static_cast<std::size_t>(static_cast<std::uint64_t>(spill_count_));
    if (spilled != 0) {
      for (std::size_t i = 0; i < spilled; ++i) fn(spill_[i]);
      spill_.clear();
      spill_count_ = 0;
    }
  }

  /// Producer-side view (both sides quiescent at phase boundaries).
  bool empty() const {
    return tail_.load(std::memory_order_relaxed) ==
               head_.load(std::memory_order_relaxed) &&
           static_cast<std::uint64_t>(spill_count_) == 0;
  }

 private:
  static std::size_t round_up_pow2(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap *= 2;
    return cap;
  }

  std::vector<typename Model::template var<T>> slots_;
  typename Model::template atomic<std::uint64_t> head_{0};
  typename Model::template atomic<std::uint64_t> tail_{0};
  // Overflow spill: producer-owned between drains; synchronized by the
  // window-phase epoch, not by the ring's atomics (see header comment).
  // spill_count_ is the model-checked shadow of spill_.size(): every
  // producer append writes it, every consumer drain reads it, so an
  // unsynchronized handoff surfaces as a race on this cell.
  std::vector<T> spill_;
  typename Model::template var<std::uint64_t> spill_count_{0};
};

template <class T>
using BoundaryQueue = BasicBoundaryQueue<T, RealModel>;

}  // namespace das::sim
