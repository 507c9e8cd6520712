#pragma once
// Deterministic event queue for the discrete-event engine.
//
// Events are ordered by (time, insertion sequence): ties in virtual time are
// resolved FIFO, so a simulation is a pure function of (DAG, topology,
// scenario, seed) — the property the determinism tests pin down.
//
// Two storage tiers, one logical order:
//
//   - FIFO *lanes* for event classes whose timestamps are nondecreasing by
//     construction. Virtual time never goes backwards, so "now + <fixed
//     per-lane delay>" pushes arrive already sorted — a flat ring buffer
//     holds them in pop order with O(1) push and pop, no heap at all. The
//     engine routes its dominant traffic (dispatch/completion/steal wakes
//     that miss the next slot below, zero-delay releases it does not run
//     in place) through lanes; push_lane asserts the monotonicity contract.
//   - a 4-ary array *heap* for irregular timestamps (cost-model completion
//     times, jittered backoff wakes, job arrival offsets). Explicit 4-ary
//     beats std::push_heap/std::pop_heap over a binary tree: half the
//     sift depth and the four children sit in adjacent slots.
//
// pop() merges the tiers by (time, seq), which IS the global order — a lane
// is internally sorted and the heap yields its minimum, so the earliest
// head across sources is the earliest event outright. The pop sequence is
// therefore bit-identical to a single binary heap's; only the internal
// layout differs. An occupancy mask over the sources (bit 0 = heap, bit
// 1+i = lane i) keeps the merge from scanning empty heads: with one hot
// source — the common regime, a lane burst or a heap-only tail — pop does
// a single countr_zero and no compare at all.
//
// A one-item *next slot* in front of both tiers holds an item that is known
// to pop next. push_next() puts its item there when the slot is empty and
// the item precedes every queued item by (time, seq); otherwise the item
// goes to its lane, or to the heap when the lane's newest item does not
// precede it. While the slot is full, every push()/push_lane() of an item
// that precedes it first moves the slot item into the heap, with its own
// seq. So the slot item always precedes everything else that is queued,
// and top()/pop() return it without a merge scan, a lane push or a ring
// pop: the pop sequence is the plain queue's by construction. top(),
// pop(), empty() and size() all count the slot, so no caller ever sees a
// queue with an item missing.
//
// Each item's seq is normally taken at its push. reserve_seq() takes one
// early, for an item its caller creates now but pushes (through push_next)
// only after pushing items that must order after it.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/assert.hpp"
#include "util/ring_buffer.hpp"

namespace das::sim {

template <typename Payload>
class EventQueue {
 public:
  struct Item {
    double time;
    std::uint64_t seq;
    Payload payload;
  };

  /// Configures `n` FIFO lanes (ids 0..n-1). Must be called while empty;
  /// engines do it once at construction.
  void set_num_lanes(int n) {
    DAS_CHECK(empty());
    DAS_CHECK(n >= 0 && n < 31);  // mask bit 1+i per lane
    lanes_.resize(static_cast<std::size_t>(n));
    heads_.fill(Head{});
    active_mask_ = 0;
  }

  /// Heap push: any timestamp >= 0.
  void push(double time, Payload payload) {
    DAS_ASSERT(time >= 0.0);
    yield_next(time);
    heap_push(Item{time, seq_++, std::move(payload)});
    ++size_;
  }

  /// Lane push: `time` must be >= the lane's newest entry (the caller's
  /// class-of-event guarantees it — virtual now() is nondecreasing and the
  /// lane's delay is a constant).
  void push_lane(int lane, double time, Payload payload) {
    DAS_ASSERT(time >= 0.0);
    DAS_ASSERT(lanes_[static_cast<std::size_t>(lane)].empty() ||
               time >= lanes_[static_cast<std::size_t>(lane)].back().time);
    yield_next(time);
    lane_push(lane, Item{time, seq_++, std::move(payload)});
    ++size_;
  }

  /// The next insertion sequence number, taken now for an item that is
  /// pushed later through push_next (see the header comment).
  std::uint64_t reserve_seq() { return seq_++; }

  /// Push of an item its caller expects to pop next: into the next slot
  /// when it precedes every queued item, else into lane `lane` (or the
  /// heap, when the lane's newest item does not precede it). `seq` comes
  /// from reserve_seq(); the overload without it takes a fresh one.
  void push_next(int lane, double time, std::uint64_t seq,
                 const Payload& payload) {
    DAS_ASSERT(time >= 0.0 && seq < seq_);
    if (!has_next_ && precedes_queued(time, seq)) [[likely]] {
      next_.time = time;
      next_.seq = seq;
      next_.payload = payload;
      has_next_ = true;
      ++size_;
      return;
    }
    push_next_slow(lane, Item{time, seq, payload});
  }
  void push_next(int lane, double time, const Payload& payload) {
    push_next(lane, time, seq_++, payload);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  const Item& top() const {
    DAS_ASSERT(!empty());
    if (has_next_) return next_;
    const int src = best_source();
    return src < 0 ? heap_.front()
                   : lanes_[static_cast<std::size_t>(src)].front();
  }

  /// Time of the earliest queued item; +inf when empty.
  double next_time() const {
    if (has_next_) return next_.time;
    double t = std::numeric_limits<double>::infinity();
    for (std::uint32_t m = active_mask_; m != 0; m &= m - 1)
      t = std::min(t, heads_[static_cast<std::size_t>(std::countr_zero(m))].time);
    return t;
  }

  Item pop() {
    if (has_next_) {
      has_next_ = false;
      --size_;
      return std::move(next_);
    }
    return pop_from(best_source());
  }

  /// Pre-sizes the heap for `n` more events than currently queued (the
  /// engine passes a job's roots plus two per core plus a margin at
  /// submit): the heap then grows at most once instead of through the
  /// doubling ladder. Growth stays geometric (never below 2x the current
  /// capacity) so a burst of submits does not degrade into quadratic
  /// exact-fit reallocations.
  void reserve(std::size_t n) {
    const std::size_t want = heap_.size() + n;
    if (want > heap_.capacity())
      heap_.reserve(std::max(heap_.capacity() * 2, want));
  }

  void clear() {
    heap_.clear();
    for (auto& q : lanes_) q.clear();
    heads_.fill(Head{});
    active_mask_ = 0;
    has_next_ = false;
    size_ = 0;
  }

 private:
  /// True when `a` pops strictly before `b`.
  static bool before(const Item& a, const Item& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// An item pushed with a fresh seq precedes the slot item exactly when it
  /// is earlier in time: the slot item's seq is the older one. Such a push
  /// first moves the slot item into the heap.
  void yield_next(double time) {
    if (has_next_ && time < next_.time) [[unlikely]] evict_next();
  }
  [[gnu::noinline]] void evict_next() {
    has_next_ = false;
    heap_push(std::move(next_));
  }

  /// push_next when the slot is taken or `item` does not precede every
  /// queued item. This and evict_next stay out of line so that the fast
  /// paths of push_next and push stay small enough to inline into the
  /// engine's handlers.
  [[gnu::noinline]] void push_next_slow(int lane, Item item) {
    ++size_;
    if (has_next_ && before(item, next_)) {
      heap_push(std::move(next_));  // the new item precedes the slot's
      next_ = std::move(item);
      return;
    }
    place(lane, std::move(item));
  }

  /// True when an item (time, seq) precedes every item in the lanes and
  /// the heap.
  bool precedes_queued(double time, std::uint64_t seq) const {
    for (std::uint32_t m = active_mask_; m != 0; m &= m - 1) {
      const Head& h = heads_[static_cast<std::size_t>(std::countr_zero(m))];
      if (h.time < time || (h.time == time && h.seq < seq)) return false;
    }
    return true;
  }

  /// Lane `lane` when its newest item precedes `item` (the lane stays
  /// sorted), the heap otherwise.
  void place(int lane, Item item) {
    const RingBuffer<Item>& q = lanes_[static_cast<std::size_t>(lane)];
    if (q.empty() || before(q.back(), item))
      lane_push(lane, std::move(item));
    else
      heap_push(std::move(item));
  }

  void heap_push(Item item) {
    heap_.push_back(std::move(item));
    sift_up(heap_.size() - 1);
    heads_[0] = Head{heap_.front().time, heap_.front().seq};
    active_mask_ |= 1u;
  }

  void lane_push(int lane, Item item) {
    RingBuffer<Item>& q = lanes_[static_cast<std::size_t>(lane)];
    if (q.empty()) {
      heads_[static_cast<std::size_t>(lane) + 1] = Head{item.time, item.seq};
      active_mask_ |= 1u << (lane + 1);
    }
    q.push_back(std::move(item));
  }

  /// Removes and returns the head of `src` (lane index or -1 = heap).
  Item pop_from(int src) {
    DAS_ASSERT(!empty());
    --size_;
    if (src >= 0) {
      RingBuffer<Item>& q = lanes_[static_cast<std::size_t>(src)];
      Item out = std::move(q.front());
      q.pop_front();
      if (q.empty()) {
        heads_[static_cast<std::size_t>(src) + 1] = Head{};
        active_mask_ &= ~(1u << (src + 1));
      } else {
        heads_[static_cast<std::size_t>(src) + 1] =
            Head{q.front().time, q.front().seq};
      }
      return out;
    }
    Item out = std::move(heap_.front());
    Item last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = std::move(last);
      sift_down(0);
      heads_[0] = Head{heap_.front().time, heap_.front().seq};
    } else {
      heads_[0] = Head{};
      active_mask_ &= ~1u;
    }
    return out;
  }

  /// Source holding the global (time, seq) minimum: lane index, or -1 for
  /// the heap. Caller guarantees !empty(). Walks only the OCCUPIED bits of
  /// the source mask: one countr_zero when a single source is hot (the
  /// common case), a strict (time, seq) compare per extra live source
  /// otherwise — ascending bit order keeps the lowest-index tie-break the
  /// full scan had, so the pop order is bit-identical.
  int best_source() const {
    DAS_ASSERT(active_mask_ != 0);
    std::uint32_t m = active_mask_;
    std::size_t best = static_cast<std::size_t>(std::countr_zero(m));
    m &= m - 1;
    while (m != 0) {
      const auto i = static_cast<std::size_t>(std::countr_zero(m));
      m &= m - 1;
      const Head& h = heads_[i];
      const Head& b = heads_[best];
      if (h.time < b.time || (h.time == b.time && h.seq < b.seq)) best = i;
    }
    DAS_ASSERT(heads_[best].time !=
               std::numeric_limits<double>::infinity());
    return static_cast<int>(best) - 1;
  }

  void sift_up(std::size_t i) {
    Item item = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(item, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(item);
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    Item item = std::move(heap_[i]);
    for (;;) {
      const std::size_t first_child = (i << 2) + 1;
      if (first_child >= n) break;
      const std::size_t last_child = std::min(first_child + 4, n);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], item)) break;
      heap_[i] = std::move(heap_[best]);
      i = best;
    }
    heap_[i] = std::move(item);
  }

  /// Head summary of one source for the merge scan; empty = +inf sentinel
  /// (never selected while any source holds a real event).
  struct Head {
    double time = std::numeric_limits<double>::infinity();
    std::uint64_t seq = std::numeric_limits<std::uint64_t>::max();
  };

  std::vector<Item> heap_;            // 4-ary min-heap, irregular times
  std::vector<RingBuffer<Item>> lanes_;  // per-class FIFOs, sorted by contract
  std::array<Head, 32> heads_{};      // [0]=heap, [1+i]=lane i (mask bits)
  std::uint32_t active_mask_ = 0;     // bit set <=> heads_[bit] is live
  bool has_next_ = false;             // next_ holds an item
  Item next_{};                       // precedes every other queued item
  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;              // slot + heap + all lanes
};

}  // namespace das::sim
