// Tests for the multi-tenant service layer (exec/session.hpp +
// exec/service.cpp): config builder parity, bitwise-deterministic sim
// fairness traces, weighted DRR shares, admission reject/block paths,
// priority ordering within a tenant, grouped draining, counters, and an
// rt multi-tenant concurrent-submitter stress (TSan coverage).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "kernels/registry.hpp"
#include "util/time.hpp"
#include "workloads/synthetic_dag.hpp"

namespace das {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : topo_(Topology::tx2()) {
    ids_ = kernels::register_paper_kernels(registry_);
  }

  Dag small_dag(int parallelism = 3, int tasks = 20, WorkFn work = {}) {
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

TEST_F(SessionTest, SimFairnessTraceIsBitwiseDeterministic) {
  // The tentpole determinism claim: the same 3-tenant submission sequence
  // on a fresh sim executor replays BITWISE — identical arrival, queue and
  // makespan doubles job for job (so fairness traces are replayable).
  struct Trace {
    std::string tenant;
    double arrival_s, queue_s, makespan_s;
  };
  auto run_once = [&] {
    auto exec = make_executor(
        Backend::kSim, topo_, Policy::kDamC, registry_,
        {.seed = 7, .service = {.max_service_inflight = 4}});
    TenantConfig a{.name = "a", .weight = 1.0, .max_in_flight = 2};
    TenantConfig b{.name = "b", .weight = 2.0, .max_in_flight = 2};
    TenantConfig c{.name = "c", .weight = 4.0, .max_in_flight = 2};
    auto sa = exec->open_session(a);
    auto sb = exec->open_session(b);
    auto sc = exec->open_session(c);
    std::vector<Dag> dags;
    dags.reserve(30);
    std::vector<JobId> ids;
    for (int j = 0; j < 10; ++j) {
      dags.push_back(small_dag(2, 20));
      ids.push_back(sa->submit(dags.back()));
      dags.push_back(small_dag(3, 20));
      ids.push_back(sb->submit(dags.back()));
      dags.push_back(small_dag(4, 20));
      ids.push_back(sc->submit(dags.back()));
    }
    std::vector<Trace> trace;
    for (JobId id : ids) {
      const RunResult r = exec->wait(id);
      trace.push_back(Trace{r.tenant, r.arrival_s, r.queue_s, r.makespan_s});
    }
    return trace;
  };
  const auto t1 = run_once();
  const auto t2 = run_once();
  ASSERT_EQ(t1.size(), 30u);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].tenant, t2[i].tenant) << "job " << i;
    // Bitwise: exact double equality, not a tolerance.
    EXPECT_EQ(t1[i].arrival_s, t2[i].arrival_s) << "job " << i;
    EXPECT_EQ(t1[i].queue_s, t2[i].queue_s) << "job " << i;
    EXPECT_EQ(t1[i].makespan_s, t2[i].makespan_s) << "job " << i;
  }
}

TEST_F(SessionTest, DrrSharesFollowWeightsWhileBacklogged) {
  // Three backlogged tenants with weights 1:2:4 and equal job sizes: among
  // the first releases (while ALL tenants still have queued work), released
  // task counts normalized by weight must agree within 10%.
  // The global in-flight cap spreads releases over virtual time (so
  // release instants order the trace) without biasing shares: the pump
  // resumes an interrupted tenant's turn instead of rotating past it.
  auto exec = make_executor(Backend::kSim, topo_, Policy::kRws, registry_,
                            {.seed = 11,
                             .service = {.max_service_inflight = 4,
                                         .drr_quantum_tasks = 20}});
  const double weights[3] = {1.0, 2.0, 4.0};
  std::vector<std::unique_ptr<Session>> sessions;
  for (int t = 0; t < 3; ++t) {
    TenantConfig cfg;
    cfg.name = std::string(1, static_cast<char>('a' + t));
    cfg.weight = weights[t];
    cfg.max_in_flight = 0;  // unbounded: shares shaped by DRR alone
    sessions.push_back(exec->open_session(cfg));
  }
  constexpr int kJobsPerTenant = 28;
  std::vector<Dag> dags;
  dags.reserve(3 * kJobsPerTenant);
  struct Rel {
    int tenant;
    double release_s;
    std::int64_t tasks;
  };
  std::vector<std::pair<JobId, int>> ids;
  for (int j = 0; j < kJobsPerTenant; ++j)
    for (int t = 0; t < 3; ++t) {
      dags.push_back(small_dag(2, 20));
      ids.emplace_back(
          sessions[static_cast<std::size_t>(t)]->submit(dags.back()), t);
    }
  std::vector<Rel> rels;
  for (const auto& [id, t] : ids) {
    const RunResult r = exec->wait(id);
    rels.push_back(Rel{t, r.arrival_s + r.queue_s, r.tasks});
  }
  // Weighted shares over the release prefix where EVERY tenant is still
  // backlogged: the heaviest tenant (share 4/7) drains its 28 jobs after
  // ~49 releases, so the first half (42) is a clean measurement window.
  std::sort(rels.begin(), rels.end(), [](const Rel& x, const Rel& y) {
    return x.release_s < y.release_s;
  });
  const std::size_t prefix = rels.size() / 2;
  double got[3] = {0, 0, 0};
  double total = 0;
  for (std::size_t i = 0; i < prefix; ++i) {
    got[rels[i].tenant] += static_cast<double>(rels[i].tasks);
    total += static_cast<double>(rels[i].tasks);
  }
  const double wsum = weights[0] + weights[1] + weights[2];
  for (int t = 0; t < 3; ++t) {
    const double share = got[t] / total;
    const double want = weights[t] / wsum;
    EXPECT_NEAR(share, want, 0.10 * want + 0.02)
        << "tenant " << t << " got share " << share << ", want " << want;
  }
}

TEST_F(SessionTest, AdmissionRejectsOverBudgetSubmits) {
  for (Backend backend : all_backends()) {
    SCOPED_TRACE(backend_name(backend));
    auto exec = make_executor(backend, topo_, Policy::kRws, registry_);
    TenantConfig cfg;
    cfg.name = "bounded";
    cfg.max_in_flight = 1;
    cfg.max_queued_tasks = 20;  // exactly one queued 20-task job
    cfg.overload = Overload::kReject;
    auto session = exec->open_session(cfg);
    // On rt the first job must STAY in flight while the others are
    // submitted (otherwise its completion frees the queue slot and nothing
    // rejects): gate its tasks until all three submits are in. Sim never
    // calls the work closure and passes no virtual time between submits.
    std::atomic<bool> gate{false};
    const WorkFn hold = [&gate](const ExecContext&) {
      while (!gate.load(std::memory_order_acquire)) busy_wait_ns(500);
    };
    const Dag d1 = small_dag(2, 20, hold);
    const Dag d2 = small_dag(2, 20);
    const Dag d3 = small_dag(2, 20);
    const JobId j1 = session->submit(d1);  // released (in-flight 0 -> 1)
    const JobId j2 = session->submit(d2);  // queued (20 tasks = budget)
    const JobId j3 = session->submit(d3);  // over budget -> rejected
    const RunResult r3 = exec->wait(j3);   // resolves without the engine
    gate.store(true, std::memory_order_release);
    EXPECT_EQ(r3.outcome, RunResult::Outcome::kRejected);
    EXPECT_EQ(r3.tasks, 0);
    EXPECT_DOUBLE_EQ(r3.makespan_s, 0.0);
    EXPECT_EQ(r3.tenant, "bounded");
    const RunResult r1 = exec->wait(j1);
    const RunResult r2 = exec->wait(j2);
    EXPECT_TRUE(r1.ok());
    EXPECT_TRUE(r2.ok());
    EXPECT_EQ(r1.tasks + r2.tasks, 40);
    EXPECT_GE(r2.queue_s, 0.0);  // waited behind j1's in-flight slot
    const TenantCounters counters = session->counters();
    EXPECT_EQ(counters.submitted, 2);
    EXPECT_EQ(counters.rejected, 1);
    EXPECT_EQ(counters.released, 2);
    EXPECT_EQ(counters.completed, 2);
  }
}

TEST_F(SessionTest, BlockingBackpressureUnblocksAsTheQueueDrains) {
  // Overload::kBlock: the 3rd submit must not return until the backlog
  // drains below budget — on sim the submitter pumps virtual time, on rt
  // it parks until a worker completes a job. Nothing is ever rejected.
  for (Backend backend : all_backends()) {
    SCOPED_TRACE(backend_name(backend));
    auto exec = make_executor(backend, topo_, Policy::kRws, registry_);
    TenantConfig cfg;
    cfg.name = "pushback";
    cfg.max_in_flight = 1;
    cfg.max_queued_tasks = 20;
    cfg.overload = Overload::kBlock;
    auto session = exec->open_session(cfg);
    std::vector<Dag> dags;
    for (int j = 0; j < 4; ++j) dags.push_back(small_dag(2, 20));
    std::vector<JobId> ids;
    for (const Dag& dag : dags) ids.push_back(session->submit(dag));
    const std::vector<RunResult> results = session->drain();
    ASSERT_EQ(results.size(), 4u);
    for (const RunResult& r : results) {
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(r.tasks, 20);
      EXPECT_GT(r.makespan_s, 0.0);
    }
    EXPECT_EQ(session->counters().rejected, 0);
    EXPECT_EQ(session->counters().completed, 4);
  }
}

TEST_F(SessionTest, HighPriorityJumpsTheTenantQueue) {
  // With the tenant throttled to one in-flight job, a high-priority job
  // submitted LAST among the queued ones must release before the earlier
  // low-priority ones (priority orders within a tenant's queue).
  auto exec = make_executor(Backend::kSim, topo_, Policy::kRws, registry_);
  TenantConfig cfg;
  cfg.name = "prio";
  cfg.max_in_flight = 1;
  auto session = exec->open_session(cfg);
  const Dag running = small_dag(2, 20);
  const Dag low1 = small_dag(2, 20);
  const Dag low2 = small_dag(2, 20);
  const Dag high = small_dag(2, 20);
  const JobId r0 = session->submit(running);  // occupies the in-flight slot
  const JobId l1 = session->submit(low1);
  const JobId l2 = session->submit(low2);
  SubmitOptions urgent;
  urgent.priority = 5;
  const JobId h = session->submit(high, urgent);
  std::map<JobId, double> release;
  for (JobId id : {r0, l1, l2, h}) {
    const RunResult r = exec->wait(id);
    release[id] = r.arrival_s + r.queue_s;
  }
  EXPECT_LT(release[h], release[l1]);
  EXPECT_LT(release[h], release[l2]);
  EXPECT_LT(release[l1], release[l2]);  // FIFO within a priority
}

TEST_F(SessionTest, DrainGroupedBucketsByTenant) {
  auto exec = make_executor(Backend::kSim, topo_, Policy::kRws, registry_);
  auto alpha = exec->open_session(TenantConfig{.name = "alpha", .weight = 2.0});
  auto beta = exec->open_session(TenantConfig{.name = "beta", .weight = 1.0});
  std::vector<Dag> dags;
  for (int j = 0; j < 5; ++j) dags.push_back(small_dag(2, 20));
  exec->submit(dags[0]);  // bare
  alpha->submit(dags[1]);
  alpha->submit(dags[2]);
  beta->submit(dags[3]);
  exec->submit(dags[4]);  // bare
  const std::vector<TenantResults> groups = exec->drain_grouped();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].tenant, "");  // bare group first
  EXPECT_EQ(groups[0].results.size(), 2u);
  EXPECT_EQ(groups[1].tenant, "alpha");
  EXPECT_DOUBLE_EQ(groups[1].weight, 2.0);
  EXPECT_EQ(groups[1].results.size(), 2u);
  EXPECT_EQ(groups[2].tenant, "beta");
  EXPECT_EQ(groups[2].results.size(), 1u);
  for (const TenantResults& g : groups)
    for (const RunResult& r : g.results) EXPECT_EQ(r.tenant, g.tenant);
  // Everything was claimed: a second drain finds nothing.
  EXPECT_TRUE(exec->drain().empty());
}

TEST_F(SessionTest, SessionDrainClaimsOnlyItsOwnJobs) {
  auto exec = make_executor(Backend::kSim, topo_, Policy::kRws, registry_);
  auto mine = exec->open_session(TenantConfig{.name = "mine"});
  auto other = exec->open_session(TenantConfig{.name = "other"});
  std::vector<Dag> dags;
  for (int j = 0; j < 4; ++j) dags.push_back(small_dag(2, 20));
  mine->submit(dags[0]);
  other->submit(dags[1]);
  mine->submit(dags[2]);
  exec->submit(dags[3]);  // bare
  const std::vector<RunResult> drained = mine->drain();
  ASSERT_EQ(drained.size(), 2u);
  for (const RunResult& r : drained) EXPECT_EQ(r.tenant, "mine");
  // The other session's job and the bare job are still drainable.
  EXPECT_EQ(exec->drain().size(), 2u);
}

TEST_F(SessionTest, RtMultiTenantConcurrentSubmitterStress) {
  // 4 tenants, each driven by its own submitter thread against ONE rt
  // executor, with per-tenant in-flight bounds and a global cap: every task
  // of every admitted job runs exactly once, every wait resolves, and the
  // per-tenant counters balance. TSan coverage for svc_mu_ vs the worker
  // completion hook and the DRR pump.
  constexpr int kTenants = 4;
  constexpr int kJobsPerTenant = 6;
  constexpr int kTasksPerJob = 40;
  auto exec = make_executor(
      Backend::kRt, topo_, Policy::kDamC, registry_,
      {.service = {.max_service_inflight = 6}});

  std::atomic<std::int64_t> executed{0};
  const WorkFn work = [&executed](const ExecContext& ctx) {
    if (ctx.rank == 0) executed.fetch_add(1, std::memory_order_relaxed);
    busy_wait_ns(2000);
  };

  std::vector<std::unique_ptr<Session>> sessions;
  for (int t = 0; t < kTenants; ++t) {
    TenantConfig cfg;
    cfg.name = "tenant-" + std::to_string(t);
    cfg.weight = static_cast<double>(1 + t);
    cfg.max_in_flight = 2;
    sessions.push_back(exec->open_session(cfg));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    submitters.emplace_back([&, t] {
      Session& session = *sessions[static_cast<std::size_t>(t)];
      std::vector<Dag> dags;  // outlive the jobs this thread waits on
      dags.reserve(kJobsPerTenant);
      constexpr int kParallelism[] = {2, 4, 5};
      for (int j = 0; j < kJobsPerTenant; ++j)
        dags.push_back(
            small_dag(kParallelism[(t + j) % 3], kTasksPerJob, work));
      std::vector<JobId> ids;
      for (const Dag& dag : dags) ids.push_back(session.submit(dag));
      for (JobId id : ids) {
        const RunResult r = session.wait(id);
        if (!r.ok() || r.tasks != kTasksPerJob || r.makespan_s <= 0.0)
          failures.fetch_add(1);
        if (r.tenant != "tenant-" + std::to_string(t)) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(executed.load(), kTenants * kJobsPerTenant * kTasksPerJob);
  EXPECT_EQ(exec->stats().tasks_total(),
            kTenants * kJobsPerTenant * kTasksPerJob);
  for (int t = 0; t < kTenants; ++t) {
    const TenantCounters counters =
        sessions[static_cast<std::size_t>(t)]->counters();
    EXPECT_EQ(counters.submitted, kJobsPerTenant);
    EXPECT_EQ(counters.released, kJobsPerTenant);
    EXPECT_EQ(counters.completed, kJobsPerTenant);
    EXPECT_EQ(counters.rejected, 0);
    EXPECT_EQ(counters.released_tasks, kJobsPerTenant * kTasksPerJob);
  }
}

TEST_F(SessionTest, SubmitBatchPreservesOrder) {
  auto exec = make_executor(Backend::kSim, topo_, Policy::kRws, registry_);
  auto session = exec->open_session(TenantConfig{.name = "batch"});
  const Dag d1 = small_dag(2, 20);
  const Dag d2 = small_dag(3, 30);
  const std::vector<JobId> ids = session->submit_batch({&d1, &d2});
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_LT(ids[0], ids[1]);
  const RunResult r1 = session->wait(ids[0]);
  const RunResult r2 = session->wait(ids[1]);
  EXPECT_EQ(r1.tasks, d1.num_nodes());
  EXPECT_EQ(r2.tasks, d2.num_nodes());
}

}  // namespace
}  // namespace das
