// Fault-tolerance tests (the fail-stop tentpole): deterministic sim-engine
// fail-stop recovery with bitwise replay, freeze windows, the rt watchdog's
// planned fail-stops and wedge DETECTION, the executor facade running the
// same declarative fault spec on both backends, and the service layer's
// graceful-degradation surface (bounded waits).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "kernels/registry.hpp"
#include "platform/fault_plan.hpp"
#include "rt/runtime.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "util/time.hpp"
#include "workloads/synthetic_dag.hpp"

namespace das {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class FaultToleranceTest : public ::testing::Test {
 protected:
  FaultToleranceTest() : topo_(Topology::tx2()) {  // 6 cores, 2 clusters
    ids_ = kernels::register_paper_kernels(registry_);
  }

  Dag make_dag(int parallelism, int tasks, WorkFn work = {}) {
    workloads::SyntheticDagSpec spec;
    spec.type = ids_.matmul;
    spec.parallelism = parallelism;
    spec.total_tasks = tasks;
    spec.params.p0 = 16;
    spec.work = std::move(work);
    return workloads::make_synthetic_dag(spec);
  }

  // A quarter of tx2's cores = ceil(0.25 * 6) = 2 victims (cores 4, 5;
  // the resolve_faults guarantee keeps core 0 alive).
  scenario::ScenarioSpec quarter_kill_spec(double t_s) {
    scenario::ScenarioSpec spec;
    spec.name = "test-fail";
    spec.faults.push_back(scenario::FaultSpec{
        .kind = scenario::FaultSpec::Kind::kFail,
        .cores = {},
        .cluster = scenario::FaultSpec::kNoCluster,
        .fraction = 0.25,
        .t_s = t_s,
        .duration_s = 1.0,
        .slowdown = 0.2});
    return spec;
  }

  Topology topo_;
  TaskTypeRegistry registry_;
  kernels::PaperKernelIds ids_;
};

// --- sim engine: fail-stop recovery + bitwise replay ------------------------

TEST_F(FaultToleranceTest, SimMidRunFailStopRecoversAndReplaysBitwise) {
  const Dag dag = make_dag(4, 120);
  sim::SimOptions o;
  o.hash_traces = true;

  // Clean probe sizes the kill time so the fail-stop is guaranteed to land
  // while tasks are queued and in flight on the victims.
  double clean = 0.0;
  std::uint64_t clean_hash = 0;
  {
    sim::SimEngine eng(topo_, Policy::kDamC, registry_, o);
    clean = eng.run(dag);
    clean_hash = eng.trace_hash(0);
    EXPECT_EQ(eng.cores_failed(), 0);
    EXPECT_EQ(eng.tasks_reexecuted(), 0u);
  }

  FaultPlan plan;
  plan.events.push_back(
      CoreFault{CoreFault::Kind::kFail, /*core=*/4, clean * 0.5, kInf});
  plan.events.push_back(
      CoreFault{CoreFault::Kind::kFail, /*core=*/5, clean * 0.5, kInf});

  struct Run {
    double makespan;
    std::uint64_t hash, events, reexecuted;
    int failed;
  };
  const auto run_faulty = [&] {
    sim::SimEngine eng(topo_, Policy::kDamC, registry_, o,
                       /*scenario=*/nullptr, &plan);
    Run r;
    r.makespan = eng.run(dag);
    r.hash = eng.trace_hash(0);
    r.events = eng.events_processed();
    r.reexecuted = eng.tasks_reexecuted();
    r.failed = eng.cores_failed();
    return r;
  };

  const Run a = run_faulty();
  // Recovery: both victims died, at least one participation was reclaimed
  // and re-released, and the job still completed. (No makespan ordering is
  // asserted vs the clean run: on a heterogeneous topo, losing the victim
  // cores can legitimately SHORTEN the schedule.)
  EXPECT_EQ(a.failed, 2);
  EXPECT_GT(a.reexecuted, 0u);
  EXPECT_GT(a.makespan, 0.0);
  // The faulty trace is a different schedule, not a re-hashed clean one.
  EXPECT_NE(a.hash, clean_hash);

  // Bitwise replay: same (seed, fault plan, submission sequence) = same
  // event trace, including the re-executions.
  const Run b = run_faulty();
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.reexecuted, b.reexecuted);
  EXPECT_EQ(a.makespan, b.makespan);  // exact, not approximate
}

TEST_F(FaultToleranceTest, SimEmptyFaultPlanIsByteIdenticalToNoPlan) {
  // faults_enabled_ gating: an EMPTY plan must not perturb the event or RNG
  // streams relative to a fault-free engine (this is what keeps every
  // pre-fault golden table valid; sim_determinism_test pins the absolute
  // values).
  const Dag dag = make_dag(3, 60);
  sim::SimOptions o;
  o.hash_traces = true;
  sim::SimEngine bare(topo_, Policy::kDheft, registry_, o);
  const FaultPlan empty;
  sim::SimEngine gated(topo_, Policy::kDheft, registry_, o,
                       /*scenario=*/nullptr, &empty);
  EXPECT_EQ(bare.run(dag), gated.run(dag));
  EXPECT_EQ(bare.trace_hash(0), gated.trace_hash(0));
  EXPECT_EQ(bare.events_processed(), gated.events_processed());
}

TEST_F(FaultToleranceTest, SimFreezeWindowStallsWithoutLosingWork) {
  const Dag dag = make_dag(4, 120);
  double clean = 0.0;
  {
    sim::SimEngine eng(topo_, Policy::kDamC, registry_, sim::SimOptions{});
    clean = eng.run(dag);
  }
  // Freeze both fast-cluster victims for half the clean makespan, onset
  // mid-run: progress stalls but nothing is reclaimed.
  FaultPlan plan;
  plan.events.push_back(CoreFault{CoreFault::Kind::kFreeze, 4, clean * 0.4,
                                  clean * 0.9});
  plan.events.push_back(CoreFault{CoreFault::Kind::kFreeze, 5, clean * 0.4,
                                  clean * 0.9});
  sim::SimEngine eng(topo_, Policy::kDamC, registry_, sim::SimOptions{},
                     /*scenario=*/nullptr, &plan);
  const double frozen = eng.run(dag);
  EXPECT_GE(frozen, clean);
  EXPECT_EQ(eng.cores_failed(), 0);        // freeze is transient, not a death
  EXPECT_EQ(eng.tasks_reexecuted(), 0u);   // and loses no work
}

// --- executor facade: one declarative spec, both backends -------------------

TEST_F(FaultToleranceTest, QuarterKillMidRunCompletesEveryJobOnBothBackends) {
  // The acceptance scenario: a fail-stop killing 25% of the cores mid-run,
  // driven through the SAME declarative spec on both backends. Every job of
  // a 4-job stream must complete — no hang, no lost task.
  for (Backend backend : {Backend::kSim, Backend::kRt}) {
    SCOPED_TRACE(backend == Backend::kSim ? "sim" : "rt");
    // rt executes the work closure (real time); sim charges the matmul cost
    // model (virtual time). Same DAG serves both.
    const WorkFn work = backend == Backend::kRt
                            ? WorkFn([](const ExecContext&) { busy_wait_ns(300'000); })
                            : WorkFn{};
    std::vector<Dag> dags;
    for (int j = 0; j < 4; ++j) dags.push_back(make_dag(4, 60, work));

    // Clean probe: how long does one job take on this backend?
    double probe = 0.0;
    {
      auto exec = make_executor(backend, topo_, Policy::kDamC, registry_,
                                {.seed = 2020});
      probe = exec->run(dags[0]).makespan_s;
    }

    // Kill a quarter of the cores halfway through the first job.
    auto exec = make_executor(
        backend, topo_, Policy::kDamC, registry_,
        {.seed = 2020,
         .scenario_spec = quarter_kill_spec(probe * 0.5),
         .rt = {.watchdog_period_s = 2e-4}});
    std::vector<JobId> ids;
    for (const Dag& d : dags) ids.push_back(exec->submit(d));
    std::int64_t total_tasks = 0;
    for (JobId id : ids) {
      const RunResult r = exec->wait(id);
      EXPECT_TRUE(r.ok());
      total_tasks += r.tasks;
      EXPECT_GT(r.makespan_s, 0.0);
    }
    EXPECT_EQ(total_tasks, 4 * 60);
  }
}

// --- rt runtime: watchdog ---------------------------------------------------

TEST_F(FaultToleranceTest, RtWatchdogDetectsWedgedWorkerAndJobsComplete) {
  // A WEDGED worker goes silent without the courtesy of quarantining
  // itself: no heartbeat, no queue consumption. The watchdog must detect
  // the stale heartbeat, force-quarantine the worker, re-home its queued
  // tasks, and every job latch must still fire.
  rt::RtOptions o;
  o.enable_watchdog = true;
  o.watchdog_period_s = 2e-4;
  rt::Runtime runtime(topo_, Policy::kRws, registry_, o);

  const WorkFn spin = [](const ExecContext&) { busy_wait_ns(100'000); };
  const Dag warm = make_dag(3, 30, spin);
  runtime.run(warm);
  EXPECT_EQ(runtime.workers_failed(), 0);

  runtime.inject_worker_wedge(2);
  // Several jobs submitted AFTER the wedge: their tasks may still be routed
  // at worker 2 until the watchdog declares it dead, so completion proves
  // detection + re-homing, not luck.
  std::vector<Dag> dags;
  for (int j = 0; j < 3; ++j) dags.push_back(make_dag(4, 40, spin));
  std::vector<JobId> ids;
  for (const Dag& d : dags) ids.push_back(runtime.submit(d));
  for (JobId id : ids) EXPECT_GT(runtime.wait(id), 0.0);
  // Detection may lag completion (survivors can steal the wedged worker's
  // queue before the heartbeat grace expires), but it is guaranteed: the
  // worker never heartbeats again. Poll with a generous bound.
  for (int i = 0; i < 5000 && runtime.workers_failed() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(runtime.workers_failed(), 1);
}

TEST_F(FaultToleranceTest, RtWatchdogNeverRetiresTheLastLiveWorker) {
  // Both workers of a 2-worker pool go silent. The wedge scan retires one
  // and must spare the other: a pool without a survivor cannot run another
  // task, and re-homing work would find no target.
  const Topology pair = Topology::symmetric(1, 2);
  rt::RtOptions o;
  o.enable_watchdog = true;
  o.watchdog_period_s = 2e-4;
  rt::Runtime runtime(pair, Policy::kRws, registry_, o);
  runtime.inject_worker_wedge(0);
  runtime.inject_worker_wedge(1);
  for (int i = 0; i < 5000 && runtime.workers_failed() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // The grace period is 20 ticks; give the scan some 500 more.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(runtime.workers_failed(), 1);
  // ~Runtime must still join both wedged workers and the watchdog.
}

TEST_F(FaultToleranceTest, RtPlannedFailStopQuarantinesAndJobsComplete) {
  // Planned (fault-plan) deaths take the cooperative path: the watchdog
  // arms the worker's fault flag, the worker retires at its next loop top,
  // and the watchdog re-homes whatever was queued on it.
  rt::RtOptions o;
  o.watchdog_period_s = 2e-4;
  o.faults.events.push_back(CoreFault{CoreFault::Kind::kFail, 4, 0.005, kInf});
  o.faults.events.push_back(CoreFault{CoreFault::Kind::kFail, 5, 0.005, kInf});
  rt::Runtime runtime(topo_, Policy::kRws, registry_, o);

  // The first task to run holds its job open until both deaths are armed,
  // so they land while work is still queued however late the watchdog
  // thread gets a CPU. It cannot hold up a doomed worker's retirement: the
  // watchdog counts a planned death when it arms it, not when it is acked.
  std::atomic<bool> gate_taken{false};
  const WorkFn spin = [&](const ExecContext&) {
    busy_wait_ns(200'000);
    if (gate_taken.exchange(true)) return;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (runtime.workers_failed() < 2 &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  };
  std::vector<Dag> dags;
  for (int j = 0; j < 4; ++j) dags.push_back(make_dag(4, 40, spin));
  std::vector<JobId> ids;
  for (const Dag& d : dags) ids.push_back(runtime.submit(d));
  for (JobId id : ids) EXPECT_GT(runtime.wait(id), 0.0);
  EXPECT_EQ(runtime.workers_failed(), 2);
}

// --- service layer: graceful degradation ------------------------------------

TEST_F(FaultToleranceTest, WaitForTimesOutThenCompletes) {
  for (Backend backend : {Backend::kSim, Backend::kRt}) {
    SCOPED_TRACE(backend == Backend::kSim ? "sim" : "rt");
    const WorkFn work = backend == Backend::kRt
                            ? WorkFn([](const ExecContext&) { busy_wait_ns(500'000); })
                            : WorkFn{};
    auto exec = make_executor(backend, topo_, Policy::kDamC, registry_,
                              {.seed = 11});
    const Dag dag = make_dag(4, 60, work);
    const JobId id = exec->submit(dag);
    // A bound far shorter than the job: times out, job stays waitable.
    std::optional<RunResult> first = exec->wait_for(id, 1e-7);
    EXPECT_FALSE(first.has_value());
    // A generous bound: the result arrives and is a normal completion.
    std::optional<RunResult> second = exec->wait_for(id, 60.0);
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(second->ok());
    EXPECT_EQ(second->tasks, 60);
  }
}

TEST_F(FaultToleranceTest, FacadeReportsEngineRecoveryInRunResult) {
  // RunResult::tasks_reexecuted surfaces the engine counter through the
  // service layer (the bench uses it for recovery accounting).
  const Dag dag = make_dag(4, 120);
  double probe = 0.0;
  {
    auto exec = make_executor(Backend::kSim, topo_, Policy::kDamC, registry_,
                              {.seed = 2020});
    probe = exec->run(dag).makespan_s;
  }
  auto exec = make_executor(
      Backend::kSim, topo_, Policy::kDamC, registry_,
      {.seed = 2020, .scenario_spec = quarter_kill_spec(probe * 0.5)});
  const RunResult r = exec->run(dag);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.tasks, 120);
  EXPECT_GT(r.tasks_reexecuted, 0);
}

}  // namespace
}  // namespace das
