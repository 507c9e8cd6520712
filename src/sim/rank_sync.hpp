#pragma once
// One barrier per window for the conservative parallel DES.
//
// Every DES protocol thread (sim/engine.hpp) runs the same loop over its
// block of ranks; window k is:
//
//   1. phase 1 — process the rank's events inside the window horizon,
//      staging cross-rank releases into boundary buffers;
//   2. arrive(rank, k, bound, stop) — publish a lower bound on the next
//      window start (min of the rank's next local event and the earliest
//      release it staged this window) plus a stop request;
//   3. wait_all_at_least(k) — the window's only barrier;
//   4. drain the in-bound boundary buffers in sender-rank order;
//   5. collect(k): next window start = min over the published bounds, or
//      leave the loop if any rank asked to stop.
//
// Every thread reduces the same published slots, so all of them derive the
// same next window (and the same stop decision) without another round.
//
// Double buffering: arrive() writes the slot of parity k % 2. After the
// window-k barrier a fast rank may finish window k+1 and publish again
// while a slow rank is still reading the window-k slots; that publication
// lands in the other parity. It can reach parity k % 2 again only at
// window k+2, i.e. after the window-(k+1) barrier, which the slow rank joins
// only once it is done reading. kSlotBuffers = 1 is the single-buffered
// mutant the model checker must catch as a race (tests/model_check_test).
//
// Waiting: a rank that reaches the barrier early polls the epochs up to
// spin_polls times, yielding the CPU between polls (Model::yield: a
// sched_yield here, a scheduler yield in the model checker), and then
// parks on the eventcount. The engine spins only when its protocol
// threads fit on the CPUs of the process's affinity mask; with more
// threads than CPUs it parks at once.
//
// Determinism contract: the epochs only order windows; everything a rank
// publishes for others to read (its slot, its boundary buffers) is
// written before its epoch store and read after the waiter's acquire
// sweep.
//
// Templated on the sync model (util/sync_model.hpp): the model-checker
// scenarios in tests/model_check_test.cpp explore this exact template and
// catch the seeded publication, park/wake and single-buffer mutants before
// any real thread runs the protocol.

#include <cstdint>
#include <limits>
#include <vector>

#include "util/assert.hpp"
#include "util/eventcount.hpp"
#include "util/sync_model.hpp"

namespace das::sim {

template <class Model = RealModel, int kSlotBuffers = 2>
class BasicRankSync {
 public:
  /// The window's reduction over every rank's slot: the next window start
  /// (+infinity once every queue drained) and whether any rank asked the
  /// loop to stop.
  struct Round {
    double next_start;
    bool stop;
  };

  explicit BasicRankSync(int num_ranks)
      : slots_(static_cast<std::size_t>(num_ranks)) {
    DAS_CHECK(num_ranks > 0);
  }

  BasicRankSync(const BasicRankSync&) = delete;
  BasicRankSync& operator=(const BasicRankSync&) = delete;

  /// Epoch polls before a waiter parks; 0 parks at once. Set before any
  /// protocol thread runs.
  void set_spin_polls(int polls) { spin_polls_ = polls; }
  int spin_polls() const { return spin_polls_; }

  /// `rank`'s publication for window `window` (strictly increasing per
  /// rank, starting at 1): the slot of the window's parity, then the epoch
  /// (release) and a wake for any parked waiter.
  void arrive(int rank, std::uint64_t window, double bound, bool stop) {
    Slot& s = slot(rank);
    Cell& c = s.cells[window % kSlotBuffers];
    c.bound = bound;
    c.stop = stop;
    s.epoch.store(window, std::memory_order_release);
    ec_.notify();
  }

  /// The barrier: returns once every rank arrived at `window` or later. On
  /// return the caller is synchronized with every rank's arrive(window) —
  /// its slot, and anything else it wrote before arriving, is visible.
  void wait_all_at_least(std::uint64_t window) {
    ec_.await([&] { return all_at_least(window); }, spin_polls_);
  }

  /// Reduces window `window`'s slots. Valid from wait_all_at_least(window)
  /// until the caller's next arrive(): no rank can overwrite this parity
  /// before every rank arrived at window + 1.
  Round collect(std::uint64_t window) const {
    Round r{std::numeric_limits<double>::infinity(), false};
    for (const Slot& s : slots_) {
      const Cell& c = s.cells[window % kSlotBuffers];
      const double b = c.bound;
      if (b < r.next_start) r.next_start = b;
      if (c.stop) r.stop = true;
    }
    return r;
  }

 private:
  struct Cell {
    typename Model::template var<double> bound{
        std::numeric_limits<double>::infinity()};
    typename Model::template var<bool> stop{false};
  };
  // Cacheline-padded so rank A's epoch stores do not invalidate the line
  // rank B spins its sweep on. (The chk instantiation's cells are fat
  // bookkeeping objects anyway; padding is for RealModel.)
  struct alignas(64) Slot {
    typename Model::template atomic<std::uint64_t> epoch{0};
    Cell cells[kSlotBuffers];
  };

  Slot& slot(int rank) { return slots_[static_cast<std::size_t>(rank)]; }
  const Slot& slot(int rank) const {
    return slots_[static_cast<std::size_t>(rank)];
  }

  bool all_at_least(std::uint64_t window) const {
    for (const Slot& s : slots_)
      if (s.epoch.load(std::memory_order_acquire) < window) return false;
    return true;
  }

  std::vector<Slot> slots_;
  BasicEventCount<Model> ec_;
  int spin_polls_ = 0;
};

using RankSync = BasicRankSync<RealModel>;

}  // namespace das::sim
