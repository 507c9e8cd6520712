#pragma once
// Boundary-release buffer for the conservative parallel DES.
//
// One buffer per ordered rank pair (sender -> receiver) and window parity
// carries cross-rank DAG releases between per-rank event loops
// (sim/engine.hpp). The sender rank's thread appends while it processes a
// time window; the receiver drains after that window's barrier
// (sim/rank_sync.hpp). The barrier alone orders the two sides:
//
//   - the sender appends to parity p during phase 1 of window k, then
//     arrives at barrier k (a release store);
//   - the receiver drains parity p only after wait_all_at_least(k) (an
//     acquire), so it sees every append;
//   - the sender writes parity p again only in window k + 2, after
//     barrier k + 1, which the receiver joins only once its drain is done;
//   - the last window's drain runs after the last barrier, when every
//     protocol thread has left the window loop.
//
// So the buffer is a plain append-only vector with no ordering of its own.
// It grows until its rank pair first reaches its peak traffic per window
// and allocates nothing after that. Drain order is push order, which keeps
// the receiver's seq assignment a pure function of the event streams.
//
// Templated on the sync model (util/sync_model.hpp) so the deterministic
// model checker (src/chk) explores this exact code: count_ is a checked
// cell that every push writes and every drain reads, so a drain that is not
// ordered after the sender's arrive surfaces as a race
// (window_phase_scenario in tests/model_check_test.cpp).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/sync_model.hpp"

namespace das::sim {

template <class T, class Model = RealModel>
class BasicBoundaryQueue {
 public:
  /// Sender side, during phase 1 of the window that owns this parity.
  void push(const T& v) {
    items_.push_back(v);
    count_ = static_cast<std::uint64_t>(items_.size());
  }

  /// Receiver side, after the window's barrier: invokes `fn(item)` on
  /// everything the sender pushed, in push order, and empties the buffer
  /// for the sender's next window of this parity.
  template <class Fn>
  void drain(Fn&& fn) {
    const auto n = static_cast<std::size_t>(static_cast<std::uint64_t>(count_));
    if (n == 0) return;
    for (std::size_t i = 0; i < n; ++i) fn(items_[i]);
    items_.clear();
    count_ = 0;
  }

 private:
  std::vector<T> items_;
  // The model-checked shadow of items_.size() (plain in RealModel).
  typename Model::template var<std::uint64_t> count_{0};
};

template <class T>
using BoundaryQueue = BasicBoundaryQueue<T, RealModel>;

}  // namespace das::sim
