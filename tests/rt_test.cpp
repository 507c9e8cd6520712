// Tests for the real-thread runtime: conservation, dependency ordering,
// moldable cooperative execution, steal-exemption of high-priority tasks,
// multi-run reuse, randomised stress DAGs, throttle-based asymmetry,
// per-worker stats blocks, and the idle protocol (a starved or idle pool
// must end up parked, not spinning).

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "kernels/registry.hpp"
#include "platform/affinity.hpp"
#include "rt/runtime.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic_dag.hpp"

namespace das::rt {
namespace {

class RtTest : public ::testing::Test {
 protected:
  RtTest() : topo_(Topology::tx2()) {
    ids_ = kernels::register_paper_kernels(registry_);
  }

  Topology topo_;
  TaskTypeRegistry registry_;
  kernels::PaperKernelIds ids_;
};

TEST_F(RtTest, EveryWorkClosureRunsExactlyOnce) {
  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> executed(kTasks);
  Dag dag;
  for (int i = 0; i < kTasks; ++i) {
    dag.add_node(ids_.matmul, Priority::kLow, {},
                 [&executed, i](const ExecContext& ctx) {
                   if (ctx.rank == 0)
                     executed[static_cast<std::size_t>(i)].fetch_add(1);
                 });
  }
  // Random layered dependencies.
  Xoshiro256 rng(5);
  for (int i = 1; i < kTasks; ++i) {
    const int preds = static_cast<int>(rng.below(3));
    for (int p = 0; p < preds; ++p)
      dag.add_edge(static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(i))), i);
  }
  ASSERT_TRUE(dag.is_acyclic());

  Runtime rt(topo_, Policy::kRws, registry_);
  rt.run(dag);
  for (int i = 0; i < kTasks; ++i)
    EXPECT_EQ(executed[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
  EXPECT_EQ(rt.stats().tasks_total(), kTasks);
}

TEST_F(RtTest, DependenciesNeverInverted) {
  // Each task stores a completion ticket; successors must observe all
  // predecessors' tickets already set.
  constexpr int kTasks = 300;
  std::vector<std::atomic<bool>> done(kTasks);
  std::atomic<int> violations{0};
  Dag dag;
  std::vector<std::vector<NodeId>> preds(kTasks);
  Xoshiro256 rng(17);
  for (int i = 0; i < kTasks; ++i) {
    std::vector<NodeId> my_preds;
    if (i > 0) {
      const int n = 1 + static_cast<int>(rng.below(2));
      for (int p = 0; p < n; ++p)
        my_preds.push_back(static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(i))));
    }
    preds[static_cast<std::size_t>(i)] = my_preds;
    dag.add_node(ids_.matmul, Priority::kLow, {},
                 [&, i](const ExecContext& ctx) {
                   if (ctx.rank != 0) return;
                   for (NodeId p : preds[static_cast<std::size_t>(i)])
                     if (!done[static_cast<std::size_t>(p)].load(std::memory_order_acquire))
                       violations.fetch_add(1);
                   done[static_cast<std::size_t>(i)].store(true, std::memory_order_release);
                 });
    for (NodeId p : my_preds) dag.add_edge(p, i);
  }
  Runtime rt(topo_, Policy::kDamC, registry_);
  rt.run(dag);
  EXPECT_EQ(violations.load(), 0);
}

TEST_F(RtTest, MoldableAssemblyCoversAllRanks) {
  // Force a fixed wide place by pre-seeding the PTT so DAM-P sends the
  // high-priority task to (2,4); verify all 4 ranks participate.
  std::atomic<std::uint32_t> rank_mask{0};
  std::atomic<int> width_seen{0};
  Dag dag;
  dag.add_node(ids_.matmul, Priority::kHigh, {},
               [&](const ExecContext& ctx) {
                 rank_mask.fetch_or(1u << ctx.rank);
                 width_seen.store(ctx.width);
                 EXPECT_EQ(ctx.leader, 2);
                 EXPECT_GE(ctx.core, 2);
                 EXPECT_LE(ctx.core, 5);
               });
  Runtime rt(topo_, Policy::kDamP, registry_);
  rt.ptt().table(ids_.matmul).fill(1.0);
  for (int i = 0; i < 64; ++i)
    rt.ptt().table(ids_.matmul).update(ExecutionPlace{2, 4}, 0.0001);
  rt.run(dag);
  EXPECT_EQ(width_seen.load(), 4);
  EXPECT_EQ(rank_mask.load(), 0b1111u);
  EXPECT_EQ(rt.stats().tasks_at(Priority::kHigh, topo_.place_id({2, 4})), 1);
}

TEST_F(RtTest, HighPriorityExecutesOnDenverUnderFa) {
  workloads::SyntheticDagSpec spec;
  spec.type = ids_.matmul;
  spec.parallelism = 2;
  spec.total_tasks = 200;
  spec.work = [](const ExecContext&) { busy_wait_ns(20000); };
  Dag dag = workloads::make_synthetic_dag(spec);
  Runtime rt(topo_, Policy::kFa, registry_);
  rt.run(dag);
  // Every high-priority task ran at a width-1 denver place.
  std::int64_t high_total = rt.stats().tasks_with_priority(Priority::kHigh);
  EXPECT_EQ(high_total, 100);
  EXPECT_EQ(rt.stats().tasks_at(Priority::kHigh, topo_.place_id({0, 1})) +
                rt.stats().tasks_at(Priority::kHigh, topo_.place_id({1, 1})),
            high_total);
}

TEST_F(RtTest, RunIsRepeatableAndAccumulates) {
  Runtime rt(topo_, Policy::kDamC, registry_);
  for (int iter = 0; iter < 5; ++iter) {
    workloads::SyntheticDagSpec spec;
    spec.type = ids_.matmul;
    spec.parallelism = 3;
    spec.total_tasks = 60;
    spec.work = [](const ExecContext&) { busy_wait_ns(5000); };
    Dag dag = workloads::make_synthetic_dag(spec);
    const double elapsed = rt.run(dag);
    EXPECT_GT(elapsed, 0.0);
  }
  EXPECT_EQ(rt.stats().tasks_total(), 5 * 60);
}

TEST_F(RtTest, CostModelFallbackExecutesWorklessNodes) {
  Dag dag;
  TaskParams p;
  p.p0 = 16;
  dag.add_node(ids_.matmul, Priority::kLow, p);  // no work closure
  Runtime rt(topo_, Policy::kRws, registry_);
  rt.run(dag);
  EXPECT_EQ(rt.stats().tasks_total(), 1);
  EXPECT_GT(rt.stats().total_busy_s(), 0.0);
}

TEST_F(RtTest, ThrottleStretchesEmulatedSlowCores) {
  // One chain of tasks pinned by policy FA to denver; compare wall time with
  // an emulation scenario that halves core speeds vs. without.
  // The 2x stretch is only measurable when every worker owns a CPU:
  // oversubscribed (e.g. single-CPU sanitizer) runs are dominated by
  // preemption, and the busy-wait deficit disappears into that noise.
  if (allowed_cpu_count() < topo_.num_cores()) {
    GTEST_SKIP() << "only " << allowed_cpu_count() << " CPUs for "
                 << topo_.num_cores() << " workers — wall-clock ratio is "
                 << "noise under oversubscription";
  }
  auto run_once = [&](const SpeedScenario* scenario) {
    RtOptions opts;
    opts.scenario = scenario;
    Runtime rt(topo_, Policy::kFa, registry_, opts);
    Dag dag;
    NodeId prev = kInvalidNode;
    for (int i = 0; i < 30; ++i) {
      const NodeId n = dag.add_node(ids_.matmul, Priority::kHigh, {},
                                    [](const ExecContext&) { busy_wait_ns(500000); });
      if (prev != kInvalidNode) dag.add_edge(prev, n);
      prev = n;
    }
    return rt.run(dag);
  };
  const double native = run_once(nullptr);
  SpeedScenario slow(topo_);
  slow.add_interference(InterferenceEvent{.cores = {0, 1}, .cpu_share = 0.5});
  const double throttled = run_once(&slow);
  // 30 x 0.5 ms chain at half speed ~ 2x; allow generous slack for CI noise.
  EXPECT_GT(throttled, native * 1.5);
}

TEST_F(RtTest, StatsBusyTimeTracksWork) {
  // Busy time is measured in wall clock per participation; preemption under
  // oversubscription inflates it arbitrarily, so the bound is only
  // meaningful when every worker can own a CPU.
  if (allowed_cpu_count() < topo_.num_cores()) {
    GTEST_SKIP() << "only " << allowed_cpu_count() << " CPUs for "
                 << topo_.num_cores() << " workers — busy-time bound is "
                 << "noise under oversubscription";
  }
  Dag dag;
  for (int i = 0; i < 24; ++i)
    dag.add_node(ids_.matmul, Priority::kLow, {},
                 [](const ExecContext&) { busy_wait_ns(1000000); });
  Runtime rt(topo_, Policy::kRws, registry_);
  rt.run(dag);
  // 24 ms of total work, distributed.
  EXPECT_NEAR(rt.stats().total_busy_s(), 0.024, 0.012);
}

TEST_F(RtTest, RejectsMultiRankDag) {
  Dag dag;
  dag.add_node(ids_.matmul);
  dag.node(0).rank = 1;
  Runtime rt(topo_, Policy::kRws, registry_);
  EXPECT_THROW(rt.run(dag), PreconditionError);
}

TEST_F(RtTest, StarvedPoolParksInsteadOfSpinning) {
  // A job is in flight but offers work to only ONE worker: the single task
  // blocks (sleeps — no busy-wait) while every other worker has nothing to
  // execute or steal. With eventcount parking the pool's CPU consumption
  // over the window must be ~0; the pre-PR spin loop burned
  // (num_cores - 1) x window of CPU here. getrusage covers the whole
  // process, so the bound is deliberately generous — it still sits far
  // below what even one spinning worker would burn.
  Runtime rt(topo_, Policy::kRws, registry_);
  constexpr auto kSettle = std::chrono::milliseconds(100);
  constexpr auto kStarved = std::chrono::milliseconds(250);
  std::atomic<int> parked_mid_flight{-1};

  Dag dag;
  dag.add_node(ids_.matmul, Priority::kLow, {}, [&](const ExecContext& ctx) {
    if (ctx.rank != 0) return;
    std::this_thread::sleep_for(kSettle);  // let the idle workers park
    parked_mid_flight.store(rt.parked_workers());
    std::this_thread::sleep_for(kStarved);
  });

  struct rusage before {}, after {};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  rt.run(dag);
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  auto cpu_s = [](const rusage& r) {
    return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec);
  };
  const double burned = cpu_s(after) - cpu_s(before);

  // While the job was in flight, (nearly) every other worker was parked on
  // its eventcount — not yielding in a backoff loop.
  EXPECT_GE(parked_mid_flight.load(), topo_.num_cores() - 2);
  // 0.35 s of wall starvation x 5 idle workers would burn ~1.75 s spinning;
  // parked workers leave only scheduling noise.
  EXPECT_LT(burned, 0.5);
}

TEST_F(RtTest, IdlePoolParksSoonAfterItsLastJob) {
  // Two workers fit any CPU mask of two or more CPUs, so when work runs out
  // they first poll with yields (stage 2 of the idle protocol,
  // rt/worker.cpp). That poll is bounded: the pool must still be fully
  // parked within 50 ms of its last job and then burn almost no CPU. One
  // worker polling through the 200 ms window would burn ~0.2 s.
  const Topology two = Topology::symmetric(1, 2, 1.0);
  Runtime rt(two, Policy::kRws, registry_);
  workloads::SyntheticDagSpec spec;
  spec.type = ids_.matmul;
  spec.parallelism = 2;
  spec.total_tasks = 400;
  spec.work = [](const ExecContext&) {};
  const Dag dag = workloads::make_synthetic_dag(spec);
  for (int j = 0; j < 5; ++j) rt.run(dag);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  while (rt.parked_workers() < two.num_cores() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  EXPECT_EQ(rt.parked_workers(), two.num_cores());

  struct rusage before {}, after {};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  auto cpu_s = [](const rusage& r) {
    return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec);
  };
  EXPECT_LT(cpu_s(after) - cpu_s(before), 0.05);
}

TEST_F(RtTest, StressManySmallTasksAllPolicies) {
  constexpr std::int64_t kJobs = 3;
  for (Policy p : all_policies()) {
    workloads::SyntheticDagSpec spec;
    spec.type = ids_.matmul;
    spec.parallelism = 6;
    spec.total_tasks = 1200;
    spec.work = [](const ExecContext&) { busy_wait_ns(2000); };
    Dag dag = workloads::make_synthetic_dag(spec);
    Runtime rt(topo_, p, registry_);
    for (int j = 0; j < kJobs; ++j) rt.run(dag);
    // Each worker counts the tasks it finishes in its own stats block; the
    // queries must sum every block.
    const ExecutionStats& st = rt.stats();
    EXPECT_EQ(st.tasks_total(), kJobs * 1200) << policy_name(p);
    EXPECT_EQ(st.tasks_with_priority(Priority::kHigh) +
                  st.tasks_with_priority(Priority::kLow),
              kJobs * 1200)
        << policy_name(p);
    EXPECT_EQ(st.snapshot().tasks_total, kJobs * 1200) << policy_name(p);
  }
}

}  // namespace
}  // namespace das::rt
