// Tests for the discrete-event engine: determinism, conservation (every task
// runs exactly once), dependency ordering, steal-exemption, moldable
// assemblies, interference/DVFS response, multi-run PTT persistence, and
// multi-rank DAGs with delayed cross-rank edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "kernels/registry.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "workloads/heat.hpp"
#include "workloads/synthetic_dag.hpp"

namespace das::sim {
namespace {

/// The paper kernels' calibration with both noise coefficients zero: the
/// DES draws no measurement noise for types registered with it.
kernels::CostModelConfig noiseless() {
  kernels::CostModelConfig cfg;
  cfg.noise0 = 0.0;
  cfg.noise1 = 0.0;
  return cfg;
}

class SimTest : public ::testing::Test {
 protected:
  SimTest() : topo_(Topology::tx2()) {
    ids_ = kernels::register_paper_kernels(registry_);
  }

  Dag small_dag(int parallelism = 3, int tasks = 60, int tile = 16) {
    workloads::SyntheticDagSpec spec;
    spec.type = ids_.matmul;
    spec.parallelism = parallelism;
    spec.total_tasks = tasks;
    spec.params.p0 = tile;
    return workloads::make_synthetic_dag(spec);
  }

  Topology topo_;
  TaskTypeRegistry registry_;
  kernels::PaperKernelIds ids_;
};

TEST_F(SimTest, EventQueueOrdersByTimeThenSequence) {
  EventQueue<int> q;
  q.push(2.0, 20);
  q.push(1.0, 10);
  q.push(1.0, 11);  // same time: FIFO by insertion
  q.push(0.5, 5);
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q.pop().payload, 5);
  EXPECT_EQ(q.pop().payload, 10);
  EXPECT_EQ(q.pop().payload, 11);
  EXPECT_EQ(q.pop().payload, 20);
  EXPECT_TRUE(q.empty());
}

TEST_F(SimTest, EventQueueMergesLanesAndHeapInGlobalTimeSeqOrder) {
  // Lane events (nondecreasing per lane, as the engine's fixed-delay event
  // classes guarantee) must interleave with heap events purely by
  // (time, insertion seq) — the order a single heap would produce.
  EventQueue<int> q;
  q.set_num_lanes(2);
  q.push(2.0, 20);            // heap, seq 0
  q.push_lane(0, 1.0, 10);    // lane 0, seq 1
  q.push_lane(1, 1.0, 11);    // lane 1, seq 2: same time, later seq
  q.push_lane(0, 2.0, 12);    // lane 0, seq 3: ties with heap's 2.0, later seq
  q.push(0.5, 5);             // heap, seq 4: earliest time wins regardless
  ASSERT_EQ(q.size(), 5u);
  EXPECT_EQ(q.pop().payload, 5);
  EXPECT_EQ(q.top().payload, 10);
  EXPECT_EQ(q.pop().payload, 10);
  EXPECT_EQ(q.pop().payload, 11);
  EXPECT_EQ(q.pop().payload, 20);
  EXPECT_EQ(q.pop().payload, 12);
  EXPECT_TRUE(q.empty());
}

TEST_F(SimTest, EventQueueReservePreservesContentAndOrder) {
  EventQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(static_cast<double>(100 - i), i);
  q.reserve(100000);  // headroom for a big job release; no behaviour change
  ASSERT_EQ(q.size(), 100u);
  for (int i = 99; i >= 0; --i) EXPECT_EQ(q.pop().payload, i);
}

// Differential check of the lane/heap/next-slot queue against a plain set
// ordered by (time, seq): 100k seeded operations mixing heap pushes, lane
// pushes (per-lane monotone times), next-slot pushes with fresh and with
// reserved seqs, and pops. Times sit on a coarse grid, so equal times are
// common; heap pushes land at or after the last popped instant, often
// before a held slot item. The queue stays small, so next-slot pushes
// often take the slot.
TEST_F(SimTest, EventQueueMatchesASortedReferenceUnderRandomOperations) {
  constexpr int kLanes = 3;
  EventQueue<int> q;
  q.set_num_lanes(kLanes);
  std::set<std::tuple<double, std::uint64_t, int>> ref;
  Xoshiro256 rng(2024);
  std::uint64_t seq = 0;   // the queue's seq counter, mirrored
  double now = 0.0;        // time of the last pop
  double lane_last[kLanes] = {};
  std::vector<std::uint64_t> reserved;
  int id = 0;
  const auto grid = [&rng](int steps) {
    return 0.25 * static_cast<double>(rng.below(static_cast<std::uint64_t>(steps)));
  };
  const auto lane_time = [&](int lane) {
    const double t = std::max(lane_last[lane], now) + grid(3);
    lane_last[lane] = t;
    return t;
  };
  const auto check_pop = [&] {
    ASSERT_FALSE(q.empty());
    ASSERT_EQ(q.size(), ref.size());
    const auto [t, sq, want] = *ref.begin();
    EXPECT_EQ(q.next_time(), t);
    EXPECT_EQ(q.top().payload, want);
    const EventQueue<int>::Item item = q.pop();
    ASSERT_EQ(item.payload, want);
    ASSERT_EQ(item.time, t);
    ASSERT_EQ(item.seq, sq);
    ref.erase(ref.begin());
    now = t;
  };
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t r = rng.below(100);
    if (!ref.empty() && (r < 40 || (ref.size() > 12 && r < 60))) {
      ASSERT_NO_FATAL_FAILURE(check_pop()) << "operation " << op;
      continue;
    }
    const int lane = static_cast<int>(rng.below(kLanes));
    if (r < 55) {
      const double t = now + grid(6);
      q.push(t, id);
      ref.emplace(t, seq++, id++);
    } else if (r < 70) {
      const double t = lane_time(lane);
      q.push_lane(lane, t, id);
      ref.emplace(t, seq++, id++);
    } else if (r < 85) {
      const double t = lane_time(lane);
      q.push_next(lane, t, id);
      ref.emplace(t, seq++, id++);
      if (rng.below(2) == 0) {
        // An earlier heap item right behind it: the slot must give way.
        const double early = std::max(now, t - 0.25);
        q.push(early, id);
        ref.emplace(early, seq++, id++);
      }
    } else if (r < 92 || reserved.empty()) {
      reserved.push_back(q.reserve_seq());
      ASSERT_EQ(reserved.back(), seq++);
    } else {
      const std::uint64_t sq = reserved.back();
      reserved.pop_back();
      const double t = lane_time(lane);
      q.push_next(lane, t, sq, id);
      ref.emplace(t, sq, id++);
    }
  }
  while (!ref.empty()) ASSERT_NO_FATAL_FAILURE(check_pop());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), std::numeric_limits<double>::infinity());
}

TEST_F(SimTest, EveryTaskExecutesExactlyOnce) {
  for (Policy p : all_policies()) {
    Dag dag = small_dag();
    SimEngine eng(topo_, p, registry_);
    eng.run(dag);
    EXPECT_EQ(eng.stats().tasks_total(), dag.num_nodes()) << policy_name(p);
    for (NodeId i = 0; i < dag.num_nodes(); ++i)
      EXPECT_GE(eng.completion_time(i), 0.0) << policy_name(p);
  }
}

TEST_F(SimTest, DeterministicAcrossRunsWithSameSeed) {
  for (Policy p : {Policy::kRws, Policy::kDamC, Policy::kDamP}) {
    std::vector<double> makespans;
    std::vector<std::int64_t> task_counts;
    for (int rep = 0; rep < 3; ++rep) {
      Dag dag = small_dag(4, 200);
      SimOptions opts;
      opts.seed = 99;
      SimEngine eng(topo_, p, registry_, opts);
      makespans.push_back(eng.run(dag));
      task_counts.push_back(eng.stats().tasks_at(Priority::kHigh, 0));
    }
    EXPECT_DOUBLE_EQ(makespans[0], makespans[1]) << policy_name(p);
    EXPECT_DOUBLE_EQ(makespans[1], makespans[2]) << policy_name(p);
    EXPECT_EQ(task_counts[0], task_counts[1]) << policy_name(p);
  }
}

TEST_F(SimTest, DifferentSeedsChangeRwsSchedules) {
  double m1, m2;
  {
    Dag dag = small_dag(4, 400);
    SimOptions o;
    o.seed = 1;
    SimEngine eng(topo_, Policy::kRws, registry_, o);
    m1 = eng.run(dag);
  }
  {
    Dag dag = small_dag(4, 400);
    SimOptions o;
    o.seed = 2;
    SimEngine eng(topo_, Policy::kRws, registry_, o);
    m2 = eng.run(dag);
  }
  EXPECT_NE(m1, m2);  // random stealing + noise differ per seed
}

TEST_F(SimTest, DependenciesRespected) {
  // Chain of 30 tasks: completion times must be strictly increasing.
  Dag dag;
  NodeId prev = kInvalidNode;
  for (int i = 0; i < 30; ++i) {
    TaskParams p;
    p.p0 = 16;
    const NodeId n = dag.add_node(ids_.matmul, Priority::kLow, p);
    if (prev != kInvalidNode) dag.add_edge(prev, n);
    prev = n;
  }
  SimEngine eng(topo_, Policy::kRwsmC, registry_);
  eng.run(dag);
  for (NodeId i = 1; i < dag.num_nodes(); ++i)
    EXPECT_GT(eng.completion_time(i), eng.completion_time(i - 1));
}

TEST_F(SimTest, EdgeDelayPostponesSuccessor) {
  TaskTypeRegistry quiet;
  const auto quiet_ids = kernels::register_paper_kernels(quiet, noiseless());
  Dag dag;
  TaskParams p;
  p.p0 = 16;
  const NodeId a = dag.add_node(quiet_ids.matmul, Priority::kLow, p);
  const NodeId b = dag.add_node(quiet_ids.matmul, Priority::kLow, p);
  dag.add_edge(a, b, /*delay_s=*/0.5);
  SimEngine eng(topo_, Policy::kRws, quiet);
  eng.run(dag);
  EXPECT_GE(eng.completion_time(b) - eng.completion_time(a), 0.5);
}

TEST_F(SimTest, HighPriorityTasksHonourFixedPlacesUnderFa) {
  Dag dag = small_dag(2, 400);
  SimEngine eng(topo_, Policy::kFa, registry_);
  eng.run(dag);
  // FA maps every high-priority task to the Denver cores, width 1, split
  // round-robin (paper Fig. 5(c)).
  const auto dist = eng.stats().distribution(Priority::kHigh);
  ASSERT_EQ(dist.size(), 2u);
  for (const auto& [place, share] : dist) {
    EXPECT_LE(place.leader, 1);
    EXPECT_EQ(place.width, 1);
    EXPECT_NEAR(share, 0.5, 0.01);
  }
}

TEST_F(SimTest, MoldingProducesWidePlacesForRwsmC) {
  Dag dag = small_dag(6, 1200);
  SimEngine eng(topo_, Policy::kRwsmC, registry_);
  eng.run(dag);
  std::int64_t wide = 0;
  for (int pid = 0; pid < topo_.num_places(); ++pid) {
    if (topo_.place_at(pid).width > 1)
      wide += eng.stats().tasks_at(Priority::kLow, pid) +
              eng.stats().tasks_at(Priority::kHigh, pid);
  }
  // Zero-init exploration alone guarantees some wide executions.
  EXPECT_GT(wide, 0);
}

TEST_F(SimTest, StealingSpreadsRwsWork) {
  Dag dag = small_dag(6, 1200);
  SimEngine eng(topo_, Policy::kRws, registry_);
  eng.run(dag);
  // All tasks are released from one parent's queue; without stealing the
  // other five cores would stay empty.
  int busy_cores = 0;
  for (int c = 0; c < topo_.num_cores(); ++c)
    if (eng.stats().busy_s(c) > 0.0) ++busy_cores;
  EXPECT_EQ(busy_cores, topo_.num_cores());
}

TEST_F(SimTest, InterferenceSlowsPerturbedCoreTasks) {
  // Same seed, same DAG; with a co-runner on core 0 the makespan under FA
  // (which pins criticals to denver) must grow.
  TaskTypeRegistry quiet;
  const auto quiet_ids = kernels::register_paper_kernels(quiet, noiseless());
  ASSERT_EQ(quiet_ids.matmul, ids_.matmul);  // small_dag builds with ids_
  double clean, perturbed;
  {
    Dag dag = small_dag(2, 300, /*tile=*/64);  // paper-size ~0.6 ms tasks
    SimEngine eng(topo_, Policy::kFa, quiet);
    clean = eng.run(dag);
  }
  {
    Dag dag = small_dag(2, 300, /*tile=*/64);
    SpeedScenario scenario(topo_);
    scenario.add_cpu_corunner(0);
    SimEngine eng(topo_, Policy::kFa, quiet, {}, &scenario);
    perturbed = eng.run(dag);
  }
  EXPECT_GT(perturbed, clean * 1.15);
}

TEST_F(SimTest, DvfsLowPhaseStretchesExecution) {
  TaskTypeRegistry quiet;
  const auto quiet_ids = kernels::register_paper_kernels(quiet, noiseless());
  ASSERT_EQ(quiet_ids.matmul, ids_.matmul);  // small_dag builds with ids_
  double hi_phase, lo_phase;
  {
    Dag dag = small_dag(2, 60, /*tile=*/64);
    SimEngine eng(topo_, Policy::kFa, quiet);
    hi_phase = eng.run(dag);
  }
  {
    Dag dag = small_dag(2, 60, /*tile=*/64);
    SpeedScenario scenario(topo_);
    // Permanently LO on the denver cluster.
    scenario.add_dvfs(DvfsSchedule{.cluster = 0, .period_s = 1e9, .duty_hi = 0.0,
                                   .hi = 1.0, .lo = 0.17});
    SimEngine eng(topo_, Policy::kFa, quiet, {}, &scenario);
    lo_phase = eng.run(dag);
  }
  EXPECT_GT(lo_phase, hi_phase * 1.5);
}

TEST_F(SimTest, PttPersistsAcrossRuns) {
  SimEngine eng(topo_, Policy::kDamC, registry_);
  Dag d1 = small_dag(2, 40);
  eng.run(d1);
  std::uint64_t samples_after_first = 0;
  for (int pid = 0; pid < topo_.num_places(); ++pid)
    samples_after_first += eng.ptt().table(ids_.matmul).samples(pid);
  EXPECT_GT(samples_after_first, 0u);

  Dag d2 = small_dag(2, 40);
  eng.run(d2);
  std::uint64_t samples_after_second = 0;
  for (int pid = 0; pid < topo_.num_places(); ++pid)
    samples_after_second += eng.ptt().table(ids_.matmul).samples(pid);
  EXPECT_GT(samples_after_second, samples_after_first);
  // The virtual clock is monotone across runs.
  EXPECT_GT(eng.now(), 0.0);
}

TEST_F(SimTest, RejectsTypeWithoutCostModel) {
  TaskTypeRegistry reg;
  const TaskTypeId no_cost = reg.register_type("opaque");
  Dag dag;
  dag.add_node(no_cost);
  SimEngine eng(topo_, Policy::kRws, reg);
  EXPECT_THROW(eng.run(dag), PreconditionError);
}

TEST_F(SimTest, MultiRankHeatDagCompletes) {
  workloads::HeatConfig cfg;
  cfg.rows = 160;
  cfg.cols = 64;
  cfg.ranks = 4;
  cfg.iterations = 6;
  cfg.tasks_per_rank = 4;
  Dag dag = workloads::make_heat_sim_dag(cfg, ids_.heat_compute, ids_.comm);
  EXPECT_TRUE(dag.is_acyclic());

  const Topology node_topo = Topology::haswell20();
  std::vector<RankSpec> ranks(4, RankSpec{&node_topo, nullptr});
  SimOptions opts;
  opts.stats_phases = cfg.iterations;
  SimEngine eng(ranks, Policy::kDamC, registry_, opts);
  eng.run(dag);

  std::int64_t total = 0;
  for (int r = 0; r < 4; ++r) total += eng.stats(r).tasks_total();
  EXPECT_EQ(total, dag.num_nodes());
  // Comm tasks are high priority and appear on every interior rank.
  EXPECT_GT(eng.stats(1).tasks_with_priority(Priority::kHigh), 0);
}

TEST_F(SimTest, MultiRankStatsStayRankLocal) {
  workloads::HeatConfig cfg;
  cfg.rows = 80;
  cfg.cols = 32;
  cfg.ranks = 2;
  cfg.iterations = 3;
  cfg.tasks_per_rank = 4;
  Dag dag = workloads::make_heat_sim_dag(cfg, ids_.heat_compute, ids_.comm);
  const Topology node_topo = Topology::haswell20();
  std::vector<RankSpec> ranks(2, RankSpec{&node_topo, nullptr});
  SimEngine eng(ranks, Policy::kRws, registry_);
  eng.run(dag);
  std::int64_t expect_rank0 = 0;
  for (NodeId i = 0; i < dag.num_nodes(); ++i)
    if (dag.node(i).rank == 0) ++expect_rank0;
  EXPECT_EQ(eng.stats(0).tasks_total(), expect_rank0);
  EXPECT_EQ(eng.stats(1).tasks_total(), dag.num_nodes() - expect_rank0);
}

TEST_F(SimTest, PhaseTagsSegmentStats) {
  Dag dag;
  TaskParams p;
  p.p0 = 16;
  const NodeId a = dag.add_node(ids_.matmul, Priority::kLow, p);
  const NodeId b = dag.add_node(ids_.matmul, Priority::kLow, p);
  dag.node(a).phase = 0;
  dag.node(b).phase = 1;
  dag.add_edge(a, b);
  SimOptions opts;
  opts.stats_phases = 2;
  SimEngine eng(topo_, Policy::kRws, registry_, opts);
  eng.run(dag);
  std::int64_t phase0 = 0, phase1 = 0;
  for (int pid = 0; pid < topo_.num_places(); ++pid) {
    phase0 += eng.stats().tasks_at_phase(Priority::kLow, pid, 0);
    phase1 += eng.stats().tasks_at_phase(Priority::kLow, pid, 1);
  }
  EXPECT_EQ(phase0, 1);
  EXPECT_EQ(phase1, 1);
}

}  // namespace
}  // namespace das::sim
