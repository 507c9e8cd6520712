// Tests for ExecutionStats and the console reporters.

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "trace/reporter.hpp"
#include "trace/stats.hpp"

namespace das {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  StatsTest() : topo_(Topology::tx2()), stats_(topo_, /*num_phases=*/3) {}
  Topology topo_;
  ExecutionStats stats_;
};

TEST_F(StatsTest, CountsByPriorityPlaceAndPhase) {
  const int p01 = topo_.place_id({0, 1});
  const int p24 = topo_.place_id({2, 4});
  stats_.record_task_at_st(Priority::kHigh, p01, 0);
  stats_.record_task_at_st(Priority::kHigh, p01, 1);
  stats_.record_task_at_st(Priority::kLow, p24, 1);
  EXPECT_EQ(stats_.tasks_total(), 3);
  EXPECT_EQ(stats_.tasks_with_priority(Priority::kHigh), 2);
  EXPECT_EQ(stats_.tasks_at(Priority::kHigh, p01), 2);
  EXPECT_EQ(stats_.tasks_at_phase(Priority::kHigh, p01, 0), 1);
  EXPECT_EQ(stats_.tasks_at_phase(Priority::kHigh, p01, 2), 0);
  EXPECT_EQ(stats_.tasks_at(Priority::kLow, p24), 1);
}

TEST_F(StatsTest, PhaseClamping) {
  stats_.record_task_at_st(Priority::kLow, 0, 2);
  EXPECT_EQ(stats_.tasks_at_phase(Priority::kLow, 0, 2), 1);
  // Out-of-range explicit phases clamp instead of crashing.
  stats_.record_task_at_st(Priority::kLow, 0, 99);
  EXPECT_EQ(stats_.tasks_at_phase(Priority::kLow, 0, 2), 2);
}

TEST_F(StatsTest, BusyTimeAndThroughput) {
  stats_.record_busy_st(0, 1'500'000'000);
  stats_.record_busy_st(0, 500'000'000);
  stats_.record_busy_st(5, 1'000'000'000);
  EXPECT_DOUBLE_EQ(stats_.busy_s(0), 2.0);
  EXPECT_DOUBLE_EQ(stats_.busy_s(5), 1.0);
  EXPECT_DOUBLE_EQ(stats_.total_busy_s(), 3.0);
  stats_.record_task_at_st(Priority::kLow, 0, 0);
  stats_.record_task_at_st(Priority::kLow, 0, 0);
  stats_.set_elapsed(4.0);
  EXPECT_DOUBLE_EQ(stats_.throughput(), 0.5);
}

TEST_F(StatsTest, ThroughputZeroWithoutElapsed) {
  stats_.record_task_at_st(Priority::kLow, 0, 0);
  EXPECT_DOUBLE_EQ(stats_.throughput(), 0.0);
}

TEST_F(StatsTest, DistributionSortedAndNormalised) {
  const int p01 = topo_.place_id({0, 1});
  const int p11 = topo_.place_id({1, 1});
  for (int i = 0; i < 3; ++i) stats_.record_task_at_st(Priority::kHigh, p01, 0);
  stats_.record_task_at_st(Priority::kHigh, p11, 0);
  const auto dist = stats_.distribution(Priority::kHigh);
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_EQ(dist[0].first, (ExecutionPlace{0, 1}));
  EXPECT_DOUBLE_EQ(dist[0].second, 0.75);
  EXPECT_DOUBLE_EQ(dist[1].second, 0.25);
  EXPECT_TRUE(stats_.distribution(Priority::kLow).empty());
}

TEST_F(StatsTest, ResetClearsEverything) {
  stats_.record_task_at_st(Priority::kHigh, 0, 0);
  stats_.record_busy_st(2, 100);
  stats_.set_elapsed(1.0);
  stats_.reset();
  EXPECT_EQ(stats_.tasks_total(), 0);
  EXPECT_DOUBLE_EQ(stats_.total_busy_s(), 0.0);
  EXPECT_DOUBLE_EQ(stats_.elapsed_s(), 0.0);
}

TEST_F(StatsTest, ConcurrentWriterBlocksAreLossless) {
  // One thread per writer block, each recording through the single-writer
  // path into its own block only (the rt contract): nothing is lost, and
  // every query sums all blocks.
  constexpr int kWriters = 6, kIters = 20000;
  ExecutionStats stats(topo_, /*num_phases=*/2, kWriters);
  EXPECT_EQ(stats.num_writers(), kWriters);
  const int p01 = topo_.place_id({0, 1});
  const int p24 = topo_.place_id({2, 4});
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        stats.record_task_at_st(i % 3 == 0 ? Priority::kHigh : Priority::kLow,
                                i % 2 == 0 ? p01 : p24, i % 2, w);
        stats.record_busy_st(w, 10);
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::int64_t total = std::int64_t{kWriters} * kIters;
  EXPECT_EQ(stats.tasks_total(), total);
  // Per writer: i % 3 == 0 is high (6667 of 20000); i % 2 picks place and
  // phase together.
  const std::int64_t high = std::int64_t{kWriters} * ((kIters + 2) / 3);
  EXPECT_EQ(stats.tasks_with_priority(Priority::kHigh), high);
  EXPECT_EQ(stats.tasks_with_priority(Priority::kLow), total - high);
  const std::int64_t high_p01 = stats.tasks_at(Priority::kHigh, p01);
  EXPECT_EQ(high_p01 + stats.tasks_at(Priority::kLow, p01), total / 2);
  EXPECT_EQ(stats.tasks_at_phase(Priority::kHigh, p24, 0), 0);
  EXPECT_EQ(stats.tasks_at_phase(Priority::kLow, p24, 0), 0);
  EXPECT_EQ(stats.snapshot().tasks_total, total);
  double shares = 0.0;
  for (const auto& [place, share] : stats.distribution(Priority::kHigh))
    shares += share;
  EXPECT_DOUBLE_EQ(shares, 1.0);
  for (int w = 0; w < kWriters; ++w)
    EXPECT_DOUBLE_EQ(stats.busy_s(w), kIters * 10 * 1e-9);

  stats.reset();
  EXPECT_EQ(stats.tasks_total(), 0);
  EXPECT_EQ(stats.tasks_with_priority(Priority::kHigh), 0);
  EXPECT_TRUE(stats.distribution(Priority::kLow).empty());
  EXPECT_DOUBLE_EQ(stats.total_busy_s(), 0.0);
}

TEST_F(StatsTest, QueriesSumEveryWriterBlockAndResetClearsThem) {
  // The last, the first and a middle block each hold a count; a
  // per-(priority, place, phase) query must see all three.
  ExecutionStats stats(topo_, /*num_phases=*/3, /*num_writers=*/4);
  const int p11 = topo_.place_id({1, 1});
  const int p24 = topo_.place_id({2, 4});
  stats.record_task_at_st(Priority::kHigh, p11, 2, /*writer=*/3);
  stats.record_task_at_st(Priority::kHigh, p11, 2, /*writer=*/1);
  stats.record_task_at_st(Priority::kHigh, p11, 2, /*writer=*/0);
  stats.record_task_at_st(Priority::kHigh, p24, 0, /*writer=*/2);
  stats.record_task_at_st(Priority::kLow, p11, 9, /*writer=*/2);  // clamps
  EXPECT_EQ(stats.tasks_at_phase(Priority::kHigh, p11, 2), 3);
  EXPECT_EQ(stats.tasks_at_phase(Priority::kLow, p11, 2), 1);
  EXPECT_EQ(stats.tasks_at(Priority::kHigh, p11), 3);
  EXPECT_EQ(stats.tasks_total(), 5);
  // The per-priority queries fold every block and phase per place.
  EXPECT_EQ(stats.tasks_with_priority(Priority::kHigh), 4);
  EXPECT_EQ(stats.tasks_with_priority(Priority::kLow), 1);
  const auto dist = stats.distribution(Priority::kHigh);
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_EQ(topo_.place_id(dist[0].first), p11);
  EXPECT_DOUBLE_EQ(dist[0].second, 0.75);
  EXPECT_EQ(topo_.place_id(dist[1].first), p24);
  EXPECT_DOUBLE_EQ(dist[1].second, 0.25);
  const StatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.tasks_high, 4);
  EXPECT_EQ(snap.tasks_low, 1);
  EXPECT_EQ(snap.tasks_total, 5);
  EXPECT_EQ(snap.high_distribution, dist);
  stats.reset();
  for (int phase = 0; phase < 3; ++phase)
    EXPECT_EQ(stats.tasks_at_phase(Priority::kHigh, p11, phase), 0);
  EXPECT_EQ(stats.tasks_total(), 0);
  // Counting resumes from zero in every block.
  stats.record_task_at_st(Priority::kLow, p11, 0, /*writer=*/3);
  EXPECT_EQ(stats.tasks_total(), 1);
}

TEST_F(StatsTest, ReportersRenderPlacesAndCores) {
  stats_.record_task_at_st(Priority::kHigh, topo_.place_id({2, 4}), 0);
  stats_.record_busy_st(3, 2'000'000'000);
  std::ostringstream os;
  print_priority_distribution(stats_, os, "dist");
  print_core_worktime(stats_, os, "work");
  const std::string s = os.str();
  EXPECT_NE(s.find("(C2,4)"), std::string::npos);
  EXPECT_NE(s.find("100.0%"), std::string::npos);
  EXPECT_NE(s.find("C3"), std::string::npos);
  EXPECT_NE(s.find("2.00"), std::string::npos);
  EXPECT_NE(s.find("total"), std::string::npos);
}

}  // namespace
}  // namespace das
