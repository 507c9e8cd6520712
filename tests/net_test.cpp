// Tests for the in-process message-passing substrate: point-to-point
// matching, the per-(src,tag) FIFO guarantee, collectives, barrier, and a
// ring-exchange deadlock check.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <optional>
#include <vector>

#include "net/world.hpp"
#include "util/assert.hpp"

namespace das::net {
namespace {

TEST(Mailbox, MatchesBySourceAndTag) {
  Mailbox mb;
  mb.deliver(Message{0, 7, {std::byte{1}}});
  mb.deliver(Message{1, 7, {std::byte{2}}});
  mb.deliver(Message{0, 8, {std::byte{3}}});
  EXPECT_EQ(mb.pending(), 3u);
  const Message m = mb.take(1, 7);
  EXPECT_EQ(m.payload[0], std::byte{2});
  Message out;
  EXPECT_FALSE(mb.try_take(1, 7, out));
  EXPECT_TRUE(mb.try_take(0, 8, out));
  EXPECT_EQ(out.payload[0], std::byte{3});
  EXPECT_TRUE(mb.try_take(0, 7, out));
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, FifoPerSourceTagPair) {
  Mailbox mb;
  for (int i = 0; i < 5; ++i)
    mb.deliver(Message{0, 1, {std::byte(i)}});
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(mb.take(0, 1).payload[0], std::byte(i));
}

TEST(Mailbox, BoundedTakesReturnNulloptWhenNothingMatches) {
  Mailbox mb;
  constexpr std::chrono::milliseconds kShort{1};
  EXPECT_FALSE(mb.take_for(0, 1, kShort).has_value());
  EXPECT_FALSE(mb.take_any_for(1, kShort).has_value());
  // A queued message with another source or tag does not match either.
  mb.deliver(Message{1, 2, {std::byte{9}}});
  EXPECT_FALSE(mb.take_for(0, 2, kShort).has_value());
  EXPECT_FALSE(mb.take_any_for(1, kShort).has_value());
  EXPECT_EQ(mb.pending(), 1u);
}

TEST(Mailbox, TakeAnyForReturnsTheOldestMessageAcrossSources) {
  Mailbox mb;
  mb.deliver(Message{2, 5, {std::byte{1}}});
  mb.deliver(Message{1, 6, {std::byte{2}}});
  mb.deliver(Message{0, 5, {std::byte{3}}});
  constexpr std::chrono::seconds kLong{10};
  const std::optional<Message> first = mb.take_any_for(5, kLong);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->src, 2);
  EXPECT_EQ(first->payload[0], std::byte{1});
  const std::optional<Message> second = mb.take_any_for(5, kLong);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->src, 0);
  EXPECT_EQ(second->payload[0], std::byte{3});
  EXPECT_FALSE(mb.take_any_for(5, std::chrono::milliseconds{1}).has_value());
  EXPECT_EQ(mb.pending(), 1u);
}

TEST(World, PingPong) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 0, 42);
      EXPECT_EQ(comm.recv_value<int>(1, 1), 43);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 0), 42);
      comm.send_value(0, 1, 43);
    }
  });
}

TEST(World, RecvSizeMismatchThrows) {
  World world(1);
  auto& c = world.comm(0);
  const double v = 1.0;
  c.send(0, 3, &v, sizeof(v));
  float small;
  EXPECT_THROW(c.recv(0, 3, &small, sizeof(small)), PreconditionError);
}

TEST(World, NegativeUserTagRejected) {
  World world(1);
  auto& c = world.comm(0);
  int v = 0;
  EXPECT_THROW(c.send(0, -1, &v, sizeof(v)), PreconditionError);
}

TEST(World, AllreduceSum) {
  constexpr int kRanks = 5;
  World world(kRanks);
  world.run([&](Comm& comm) {
    std::vector<double> data = {static_cast<double>(comm.rank()), 1.0};
    comm.allreduce_sum(data.data(), data.size());
    EXPECT_DOUBLE_EQ(data[0], 0 + 1 + 2 + 3 + 4);
    EXPECT_DOUBLE_EQ(data[1], kRanks);
  });
}

TEST(World, BroadcastFromRoot) {
  World world(4);
  world.run([](Comm& comm) {
    std::vector<double> data(3, comm.rank() == 2 ? 7.5 : 0.0);
    comm.broadcast(data.data(), data.size(), /*root=*/2);
    for (double v : data) EXPECT_DOUBLE_EQ(v, 7.5);
  });
}

TEST(World, BarrierSeparatesPhases) {
  constexpr int kRanks = 6;
  World world(kRanks);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  world.run([&](Comm& comm) {
    (void)comm;
    phase1.fetch_add(1);
    comm.barrier();
    if (phase1.load() != kRanks) violated.store(true);
    comm.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST(World, RingExchangeDoesNotDeadlock) {
  constexpr int kRanks = 8;
  World world(kRanks);
  world.run([&](Comm& comm) {
    const int right = (comm.rank() + 1) % kRanks;
    const int left = (comm.rank() + kRanks - 1) % kRanks;
    // Everyone sends first (buffered), then receives: must not deadlock.
    for (int round = 0; round < 50; ++round) {
      comm.send_value(right, 5, comm.rank() * 1000 + round);
      const int got = comm.recv_value<int>(left, 5);
      EXPECT_EQ(got, left * 1000 + round);
    }
  });
}

TEST(World, ManyMessagesStress) {
  World world(4);
  world.run([](Comm& comm) {
    constexpr int kMsgs = 2000;
    if (comm.rank() == 0) {
      std::int64_t sum = 0;
      for (int i = 0; i < kMsgs * 3; ++i) {
        // Deterministic drain order: round-robin over sources.
        const int src = 1 + (i % 3);
        sum += comm.recv_value<int>(src, 9);
      }
      // Each of ranks 1..3 sends 0..kMsgs-1.
      EXPECT_EQ(sum, 3ll * kMsgs * (kMsgs - 1) / 2);
    } else {
      for (int i = 0; i < kMsgs; ++i) comm.send_value(0, 9, i);
    }
  });
}

TEST(World, CommAccessorsValidate) {
  World world(2);
  EXPECT_EQ(world.size(), 2);
  EXPECT_EQ(world.comm(1).rank(), 1);
  EXPECT_EQ(world.comm(0).size(), 2);
  EXPECT_THROW(world.comm(2), PreconditionError);
}

}  // namespace
}  // namespace das::net
