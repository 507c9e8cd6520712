// Tests for the concurrent job service (submit/wait/drain across both
// engines): arrival-flag parsing, sim-backend determinism of a fixed job
// stream (same seed + arrival trace => bitwise-identical per-job makespans),
// rt/sim parity on a 2-job interleave, drain ordering, reset_stats, and a
// multi-submitter stress test that exercises the rt runtime's thread-safe
// submission path under the TSan CI job.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "kernels/registry.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"
#include "util/time.hpp"
#include "workloads/synthetic_dag.hpp"

namespace das {
namespace {

class JobServiceTest : public ::testing::Test {
 protected:
  JobServiceTest() : topo_(Topology::tx2()) {
    ids_ = kernels::register_paper_kernels(registry_);
  }

  Dag small_dag(int parallelism = 3, int tasks = 60, WorkFn work = {}) {
    workloads::SyntheticDagSpec spec;
    spec.type = ids_.matmul;
    spec.parallelism = parallelism;
    spec.total_tasks = tasks;
    spec.params.p0 = 16;  // small tiles: fast
    spec.work = std::move(work);
    return workloads::make_synthetic_dag(spec);
  }

  Topology topo_;
  TaskTypeRegistry registry_;
  kernels::PaperKernelIds ids_;
};

TEST(ArrivalParse, RoundTripsAndRejectsMalformed) {
  const auto poisson = cli::parse_arrival("poisson:200");
  ASSERT_TRUE(poisson.has_value());
  EXPECT_EQ(poisson->kind, cli::Arrival::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(poisson->rate_hz, 200.0);

  const auto fixed = cli::parse_arrival("fixed:0.005");
  ASSERT_TRUE(fixed.has_value());
  EXPECT_EQ(fixed->kind, cli::Arrival::Kind::kFixed);
  EXPECT_DOUBLE_EQ(fixed->gap_s, 0.005);

  EXPECT_FALSE(cli::parse_arrival("").has_value());
  EXPECT_FALSE(cli::parse_arrival("poisson").has_value());
  EXPECT_FALSE(cli::parse_arrival("poisson:").has_value());
  EXPECT_FALSE(cli::parse_arrival("poisson:0").has_value());
  EXPECT_FALSE(cli::parse_arrival("poisson:-3").has_value());
  EXPECT_FALSE(cli::parse_arrival("poisson:2x").has_value());
  EXPECT_FALSE(cli::parse_arrival("uniform:2").has_value());
}

TEST_F(JobServiceTest, SimJobStreamIsBitwiseDeterministic) {
  // Acceptance criterion: the same 8-job stream (fixed seed, fixed arrival
  // trace) submitted twice yields bitwise-identical per-job makespans.
  auto run_stream = [&] {
    ExecutorConfig config;
    config.seed = 7;
    auto exec =
        make_executor(Backend::kSim, topo_, Policy::kDamC, registry_, config);
    std::vector<Dag> dags;
    for (int j = 0; j < 8; ++j) dags.push_back(small_dag(3, 40));
    std::vector<JobId> ids;
    double offset = 0.0;
    for (int j = 0; j < 8; ++j) {
      offset += 0.003 * (j + 1);  // fixed, overlapping arrival trace
      SubmitOptions opts;
      opts.arrival_offset_s = offset;
      ids.push_back(exec->submit(dags[static_cast<std::size_t>(j)], opts));
    }
    std::vector<double> makespans;
    for (JobId id : ids) makespans.push_back(exec->wait(id).makespan_s);
    return makespans;
  };
  const std::vector<double> a = run_stream();
  const std::vector<double> b = run_stream();
  ASSERT_EQ(a.size(), 8u);
  for (std::size_t j = 0; j < a.size(); ++j)
    EXPECT_DOUBLE_EQ(a[j], b[j]) << "job " << j;
}

TEST_F(JobServiceTest, TwoJobInterleaveParityAcrossBackends) {
  // The same 2-job interleave completes on both engines with identical
  // conservation properties: every task of both jobs executes exactly once
  // and both jobs report a positive latency.
  for (Backend backend : all_backends()) {
    SCOPED_TRACE(backend_name(backend));
    auto exec = make_executor(backend, topo_, Policy::kDamC, registry_);
    const Dag d1 = small_dag(2, 40);
    const Dag d2 = small_dag(4, 60);
    const JobId j1 = exec->submit(d1);
    const JobId j2 = exec->submit(d2);
    EXPECT_NE(j1, j2);
    const RunResult r2 = exec->wait(j2);  // out of submission order
    const RunResult r1 = exec->wait(j1);
    EXPECT_EQ(r1.job, j1);
    EXPECT_EQ(r2.job, j2);
    EXPECT_EQ(r1.tasks, d1.num_nodes());
    EXPECT_EQ(r2.tasks, d2.num_nodes());
    EXPECT_GT(r1.makespan_s, 0.0);
    EXPECT_GT(r2.makespan_s, 0.0);
    // Both jobs' tasks landed in the shared (accumulating) stats.
    EXPECT_EQ(exec->stats().tasks_total(), d1.num_nodes() + d2.num_nodes());
  }
}

TEST_F(JobServiceTest, DrainReturnsAllJobsInSubmissionOrder) {
  auto exec = make_executor(Backend::kSim, topo_, Policy::kRws, registry_);
  std::vector<Dag> dags;
  for (int j = 0; j < 4; ++j) dags.push_back(small_dag(2, 20));
  std::vector<JobId> ids;
  for (const Dag& dag : dags) ids.push_back(exec->submit(dag));
  const std::vector<RunResult> results = exec->drain();
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t j = 0; j < results.size(); ++j) {
    EXPECT_EQ(results[j].job, ids[j]);
    EXPECT_EQ(results[j].tasks, dags[j].num_nodes());
  }
  EXPECT_TRUE(exec->drain().empty());  // nothing left in flight
}

TEST_F(JobServiceTest, ArrivalOffsetDelaysReleaseOnSim) {
  auto exec = make_executor(Backend::kSim, topo_, Policy::kDamC, registry_);
  const Dag dag = small_dag(2, 20);
  SubmitOptions opts;
  opts.arrival_offset_s = 0.5;
  const JobId id = exec->submit(dag, opts);
  const RunResult r = exec->wait(id);
  EXPECT_DOUBLE_EQ(r.arrival_s, 0.5);
  EXPECT_GE(exec->now(), 0.5);
  // The latency excludes the pre-release offset: a short job is much
  // shorter than its arrival delay.
  EXPECT_LT(r.makespan_s, 0.5);
}

TEST_F(JobServiceTest, RtPacesFutureArrivalsInWallTime) {
  // A future arrival on the real runtime is paced by the service layer's
  // wall-clock timer thread instead of being rejected: the job releases
  // ~offset seconds after submit and completes normally.
  auto exec = make_executor(Backend::kRt, topo_, Policy::kRws, registry_);
  const Dag dag = small_dag(2, 20);
  const double t0 = exec->now();
  SubmitOptions opts;
  opts.arrival_offset_s = 0.05;
  const JobId id = exec->submit(dag, opts);
  const RunResult r = exec->wait(id);
  EXPECT_EQ(r.tasks, dag.num_nodes());
  // Released no earlier than the requested offset (scenario clock ticks in
  // wall time on rt).
  EXPECT_GE(r.arrival_s - t0, 0.0);
  EXPECT_GE(exec->now() - t0, 0.05);
  EXPECT_EQ(exec->run(dag).tasks, dag.num_nodes());  // still serviceable
}

TEST_F(JobServiceTest, WaitingAnUnknownJobThrows) {
  for (Backend backend : all_backends()) {
    SCOPED_TRACE(backend_name(backend));
    auto exec = make_executor(backend, topo_, Policy::kRws, registry_);
    EXPECT_THROW(exec->wait(JobId{1234}), PreconditionError);
    const RunResult r = exec->run(small_dag(2, 20));
    EXPECT_THROW(exec->wait(r.job), PreconditionError);  // already waited
  }
}

TEST_F(JobServiceTest, ResetStatsZerosCountersButKeepsThePtt) {
  for (Backend backend : all_backends()) {
    SCOPED_TRACE(backend_name(backend));
    auto exec = make_executor(backend, topo_, Policy::kDamC, registry_);
    exec->run(small_dag(3, 60));
    ASSERT_EQ(exec->stats().tasks_total(), 60);
    ASSERT_GT(exec->stats().total_busy_s(), 0.0);

    exec->reset_stats();
    EXPECT_EQ(exec->stats().tasks_total(), 0);
    EXPECT_DOUBLE_EQ(exec->stats().total_busy_s(), 0.0);
    EXPECT_DOUBLE_EQ(exec->stats().elapsed_s(), 0.0);
    // The learned PTT survives: only the counters are zeroed.
    std::uint64_t samples = 0;
    const Ptt& ptt = exec->ptt().table(ids_.matmul);
    for (int pid = 0; pid < topo_.num_places(); ++pid)
      samples += ptt.samples(pid);
    EXPECT_GT(samples, 0u);

    // Counters restart cleanly: the next run counts from zero, and elapsed
    // covers only post-reset execution (not the engine clock, which still
    // includes the pre-reset run).
    const RunResult r = exec->run(small_dag(2, 20));
    EXPECT_EQ(r.stats[0].tasks_total, 20);
    EXPECT_GT(exec->stats().elapsed_s(), 0.0);
    EXPECT_LT(exec->stats().elapsed_s(), exec->now());
  }
}

TEST_F(JobServiceTest, TenThousandJobStreamStaysBounded) {
  // Long-lived service regression guard: wait() must retire the finished
  // job's record block, or a 10k-job stream accumulates 10k TaskRec[]
  // blocks in the jobs_ map. jobs_in_flight() IS the map's size (the
  // documented introspection point), so asserting it bounded asserts the
  // memory is bounded too.
  constexpr int kJobs = 10000;
  constexpr int kWindow = 8;  // jobs kept in flight concurrently

  // rt backend: tiny one-task jobs through the thread pool.
  {
    rt::Runtime rt(topo_, Policy::kRws, registry_);
    Dag dag;
    dag.add_node(ids_.matmul, Priority::kLow, {}, [](const ExecContext&) {});
    std::vector<JobId> window;
    for (int j = 0; j < kJobs; ++j) {
      window.push_back(rt.submit(dag));
      ASSERT_LE(rt.jobs_in_flight(), kWindow);
      if (static_cast<int>(window.size()) == kWindow) {
        for (JobId id : window) rt.wait(id);
        window.clear();
        ASSERT_EQ(rt.jobs_in_flight(), 0) << "job map grew at job " << j;
      }
    }
    for (JobId id : window) rt.wait(id);
    EXPECT_EQ(rt.jobs_in_flight(), 0);
    EXPECT_EQ(rt.stats().tasks_total(), kJobs);
  }

  // sim backend: the same stream in virtual time.
  {
    kernels::CostModelConfig noiseless;
    noiseless.noise0 = 0.0;
    noiseless.noise1 = 0.0;
    TaskTypeRegistry quiet;
    const auto quiet_ids = kernels::register_paper_kernels(quiet, noiseless);
    sim::SimEngine engine(topo_, Policy::kRws, quiet);
    Dag dag;
    TaskParams p;
    p.p0 = 16;
    dag.add_node(quiet_ids.matmul, Priority::kLow, p);
    for (int j = 0; j < kJobs; ++j) {
      engine.wait(engine.submit(dag));
      ASSERT_EQ(engine.jobs_in_flight(), 0) << "job map grew at job " << j;
    }
    EXPECT_EQ(engine.stats().tasks_total(), kJobs);
  }
}

TEST_F(JobServiceTest, MultiSubmitterStressOnRtRuntime) {
  // Several submitter threads drive ONE rt executor concurrently; every
  // task of every job must run exactly once and every wait() must resolve.
  // This is the TSan coverage for the thread-safe submission path.
  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 3;
  constexpr int kTasksPerJob = 40;
  auto exec = make_executor(Backend::kRt, topo_, Policy::kDamC, registry_);

  std::atomic<std::int64_t> executed{0};
  const WorkFn work = [&executed](const ExecContext& ctx) {
    if (ctx.rank == 0) executed.fetch_add(1, std::memory_order_relaxed);
    busy_wait_ns(2000);
  };

  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<Dag> dags;  // outlive the jobs this thread waits on
      dags.reserve(kJobsPerThread);
      // Parallelism divides kTasksPerJob so every job has exactly 40 nodes.
      constexpr int kParallelism[] = {2, 4, 5};
      for (int j = 0; j < kJobsPerThread; ++j)
        dags.push_back(small_dag(kParallelism[(t + j) % 3], kTasksPerJob, work));
      std::vector<JobId> ids;
      for (const Dag& dag : dags) ids.push_back(exec->submit(dag));
      for (JobId id : ids) {
        const RunResult r = exec->wait(id);
        if (r.tasks != kTasksPerJob || r.makespan_s <= 0.0)
          failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(executed.load(), kThreads * kJobsPerThread * kTasksPerJob);
  EXPECT_EQ(exec->stats().tasks_total(),
            kThreads * kJobsPerThread * kTasksPerJob);
}

}  // namespace
}  // namespace das
