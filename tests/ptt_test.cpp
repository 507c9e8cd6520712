// Unit + property tests for the Performance Trace Table: zero-initialisation
// exploration semantics, first-sample seeding, the weighted-average update
// (paper §4.1.1), convergence under stationary inputs for every ratio, and
// concurrent update integrity.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "core/ptt.hpp"
#include "util/aligned.hpp"
#include "util/assert.hpp"

namespace das {
namespace {

class PttTest : public ::testing::Test {
 protected:
  Topology topo_ = Topology::tx2();
};

TEST_F(PttTest, InitialisedToZeroEverywhere) {
  Ptt t(topo_);
  for (int pid = 0; pid < topo_.num_places(); ++pid) {
    EXPECT_DOUBLE_EQ(t.value(pid), 0.0);
    EXPECT_EQ(t.samples(pid), 0u);
  }
}

TEST_F(PttTest, FirstSampleStoredVerbatim) {
  Ptt t(topo_);
  t.update(ExecutionPlace{0, 1}, 0.5);
  EXPECT_DOUBLE_EQ(t.value(ExecutionPlace{0, 1}), 0.5);
  EXPECT_EQ(t.samples(ExecutionPlace{0, 1}), 1u);
  // Other entries untouched.
  EXPECT_DOUBLE_EQ(t.value(ExecutionPlace{1, 1}), 0.0);
}

TEST_F(PttTest, WeightedUpdateMatchesPaperFormula) {
  // Paper: updated = (4 * old + 1 * new) / 5 with the default 1:4 ratio.
  Ptt t(topo_);
  t.update(ExecutionPlace{0, 1}, 1.0);   // seeds to 1.0
  t.update(ExecutionPlace{0, 1}, 2.0);   // (4*1 + 2)/5 = 1.2
  EXPECT_NEAR(t.value(ExecutionPlace{0, 1}), 1.2, 1e-12);
  t.update(ExecutionPlace{0, 1}, 2.0);   // (4*1.2 + 2)/5 = 1.36
  EXPECT_NEAR(t.value(ExecutionPlace{0, 1}), 1.36, 1e-12);
}

TEST_F(PttTest, ThreeMeasurementsNeededToGetClose) {
  // The paper motivates 1:4 as needing >= 3 measurements to approach a new
  // level after a shift: from 1.0, three samples of 2.0 reach 1.488 — still
  // under halfway... verify monotone approach and the exact trajectory.
  Ptt t(topo_);
  const ExecutionPlace p{0, 1};
  t.update(p, 1.0);
  double prev = t.value(p);
  const double target = 2.0;
  for (int i = 0; i < 10; ++i) {
    t.update(p, target);
    const double v = t.value(p);
    EXPECT_GT(v, prev);
    EXPECT_LT(v, target);
    prev = v;
  }
  EXPECT_NEAR(prev, target, 0.25);  // (4/5)^10 remaining gap ~ 0.107
}

class PttRatioTest : public ::testing::TestWithParam<int> {};

TEST_P(PttRatioTest, ConvergesForEveryRatio) {
  const int num = GetParam();
  const Topology topo = Topology::tx2();
  Ptt t(topo, UpdateRatio{num, 5});
  const ExecutionPlace p{2, 4};
  t.update(p, 10.0);
  for (int i = 0; i < 200; ++i) t.update(p, 3.0);
  if (num == 5) {
    EXPECT_DOUBLE_EQ(t.value(p), 3.0);  // last-sample-only
  } else {
    EXPECT_NEAR(t.value(p), 3.0, 1e-6);
  }
  EXPECT_EQ(t.samples(p), 201u);
}

TEST_P(PttRatioTest, GeometricDecayRate) {
  const int num = GetParam();
  const Topology topo = Topology::tx2();
  Ptt t(topo, UpdateRatio{num, 5});
  const ExecutionPlace p{0, 2};
  t.update(p, 1.0);
  t.update(p, 0.0);
  // After one update towards 0 the remaining fraction is (5-num)/5.
  EXPECT_NEAR(t.value(p), (5.0 - num) / 5.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Ratios, PttRatioTest, ::testing::Values(1, 2, 3, 4, 5),
                         [](const auto& info) {
                           return "new" + std::to_string(info.param) + "of5";
                         });

TEST_F(PttTest, RejectsInvalidRatio) {
  EXPECT_THROW(Ptt(topo_, UpdateRatio{0, 5}), PreconditionError);
  EXPECT_THROW(Ptt(topo_, UpdateRatio{6, 5}), PreconditionError);
  EXPECT_THROW(Ptt(topo_, UpdateRatio{1, 0}), PreconditionError);
}

TEST_F(PttTest, RejectsNegativeSample) {
  Ptt t(topo_);
  EXPECT_THROW(t.update(0, -1.0), PreconditionError);
}

TEST_F(PttTest, FillSeedsEverything) {
  Ptt t(topo_);
  t.fill(2.5);
  for (int pid = 0; pid < topo_.num_places(); ++pid) {
    EXPECT_DOUBLE_EQ(t.value(pid), 2.5);
    EXPECT_EQ(t.samples(pid), 1u);
  }
  t.fill(0.0);
  EXPECT_EQ(t.samples(0), 0u);
}

TEST_F(PttTest, EntriesAreIndependentAcrossPlaces) {
  Ptt t(topo_);
  for (int pid = 0; pid < topo_.num_places(); ++pid)
    t.update(pid, 1.0 + pid);
  for (int pid = 0; pid < topo_.num_places(); ++pid)
    EXPECT_DOUBLE_EQ(t.value(pid), 1.0 + pid);
}

TEST_F(PttTest, ConcurrentUpdatesLoseNothing) {
  Ptt t(topo_);
  const ExecutionPlace p{2, 2};
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t, &p] {
      for (int j = 0; j < kIters; ++j) t.update(p, 1.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.samples(p), static_cast<std::uint64_t>(kThreads) * kIters);
  // All samples equal 1.0, so the smoothed value must be exactly 1.0
  // regardless of interleaving.
  EXPECT_NEAR(t.value(p), 1.0, 1e-9);
}

TEST_F(PttTest, SlotsGiveEachLeaderItsOwnLines) {
  // Leader groups start on a cache line of their own, no two places share
  // a slot, every table of a store has the same slots, and the slot reads
  // see the entry value()/samples() see.
  PttStore store(topo_, 2);
  Ptt& t = store.table(0);
  // An entry is a value and a sample count.
  constexpr int kEntriesPerLine = static_cast<int>(
      kCacheLine / (sizeof(double) + sizeof(std::uint64_t)));
  int prev_leader = -1;
  for (int pid = 0; pid < topo_.num_places(); ++pid) {
    t.update(pid, 1e-3 * (pid + 1));
    const int slot = t.slot(pid);
    EXPECT_EQ(store.table(1).slot(pid), slot);
    EXPECT_EQ(t.slot_value(slot), t.value(pid));
    EXPECT_EQ(t.slot_samples(slot), t.samples(pid));
    if (pid > 0) {
      EXPECT_GT(slot, t.slot(pid - 1));
    }
    const int leader = topo_.place_at(pid).leader;
    if (leader != prev_leader) {
      EXPECT_EQ(slot % kEntriesPerLine, 0) << "place " << pid;
    }
    prev_leader = leader;
  }
  EXPECT_THROW(t.slot(-1), PreconditionError);
  EXPECT_THROW(t.slot(topo_.num_places()), PreconditionError);
}

TEST_F(PttTest, StoreCreatesOneTablePerType) {
  PttStore store(topo_, 3, UpdateRatio{2, 5});
  EXPECT_EQ(store.num_types(), 3);
  store.table(0).update(0, 1.0);
  EXPECT_DOUBLE_EQ(store.table(0).value(0), 1.0);
  EXPECT_DOUBLE_EQ(store.table(1).value(0), 0.0);
  EXPECT_EQ(store.table(2).ratio().num, 2);
  EXPECT_THROW(store.table(3), PreconditionError);
}

TEST_F(PttTest, LargeTopologyHasAllPlaces) {
  const Topology t80 = Topology::haswell_cluster(4);
  Ptt t(t80);
  // 8 sockets x 10 cores: per socket 10 w1 + 5 w2 + 2 w4 (offsets 0,4... wait
  // offsets 0 and 4 and 8: 8+4>10 so offsets 0,4 -> 2) + 1 w8 = 18 places.
  EXPECT_EQ(t80.num_places(), 8 * 18);
  t.update(t80.num_places() - 1, 1.0);
  EXPECT_DOUBLE_EQ(t.value(t80.num_places() - 1), 1.0);
}

}  // namespace
}  // namespace das
