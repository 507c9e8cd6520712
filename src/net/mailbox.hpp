#pragma once
// Per-rank mailbox for the in-process message-passing substrate.
//
// Messages are matched by (source rank, tag) with FIFO order preserved per
// (source, tag) pair — the MPI non-overtaking guarantee, which the Heat
// ghost-cell exchange relies on.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace das::net {

struct Message {
  int src = -1;
  int tag = 0;
  std::vector<std::byte> payload;
};

class Mailbox {
 public:
  void deliver(Message msg);
  /// Blocks until a message from `src` with `tag` is available and removes
  /// the oldest such message.
  Message take(int src, int tag);
  /// Blocks until a message with `tag` from ANY source is available and
  /// removes the oldest such message (MPI_ANY_SOURCE: the server pattern —
  /// Message::src identifies the client). FIFO per (src, tag) still holds.
  Message take_any(int tag);
  /// Non-blocking variant; returns false if no match is queued.
  bool try_take(int src, int tag, Message& out);
  /// Bounded-deadline variants of take/take_any: wait at most `timeout`,
  /// return nullopt on expiry. These are what fault-tolerant receive loops
  /// build on — a peer that died mid-protocol must not wedge its
  /// counterpart forever (the daslint `unbounded-wait` rule points here).
  std::optional<Message> take_for(int src, int tag,
                                  std::chrono::nanoseconds timeout);
  std::optional<Message> take_any_for(int tag, std::chrono::nanoseconds timeout);
  std::size_t pending() const;

 private:
  using Clock = std::chrono::steady_clock;

  // Returns an iterator to the oldest message with `tag` from `src` (any
  // source when empty), or end().
  std::deque<Message>::iterator find_locked(std::optional<int> src, int tag)
      DAS_REQUIRES(mu_);
  // The one find-erase-wait loop behind take/take_any/take_for/
  // take_any_for: removes the oldest match, waiting for one until
  // `deadline` (forever when empty); nullopt once the deadline passes.
  std::optional<Message> take_matching(
      std::optional<int> src, int tag,
      std::optional<Clock::time_point> deadline) DAS_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Message> messages_ DAS_GUARDED_BY(mu_);
};

}  // namespace das::net
