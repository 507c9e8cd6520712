// Tests for the multi-tenant service layer (exec/session.hpp +
// exec/service.cpp): bitwise-deterministic sim fairness traces, weighted
// DRR shares, budget rejection, FIFO order within a tenant, a DAG the
// engine refuses thrown at submit, per-tenant draining, counters, and an
// rt multi-tenant concurrent-submitter stress (TSan coverage).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
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
                            {.seed = 11, .service = {.max_service_inflight = 4}});
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

TEST_F(SessionTest, TenantQueueReleasesInSubmissionOrder) {
  // With the tenant throttled to one in-flight job, the jobs queued behind
  // it release in the order they were submitted.
  auto exec = make_executor(Backend::kSim, topo_, Policy::kRws, registry_);
  TenantConfig cfg;
  cfg.name = "fifo";
  cfg.max_in_flight = 1;
  auto session = exec->open_session(cfg);
  const Dag running = small_dag(2, 20);
  const Dag first = small_dag(2, 20);
  const Dag second = small_dag(2, 20);
  const JobId r0 = session->submit(running);  // occupies the in-flight slot
  const JobId q1 = session->submit(first);
  const JobId q2 = session->submit(second);
  std::map<JobId, double> release;
  for (JobId id : {r0, q1, q2}) {
    const RunResult r = exec->wait(id);
    release[id] = r.arrival_s + r.queue_s;
  }
  EXPECT_LT(release[r0], release[q1]);
  EXPECT_LT(release[q1], release[q2]);  // FIFO within the tenant
}

TEST_F(SessionTest, EngineRejectedDagThrowsAtSubmit) {
  // A DAG the engine cannot run (a node on rank 1 of a one-rank executor)
  // throws at submit, queued or deferred, bare or session: it must never
  // wait for a later release, which runs in a completion hook or a timer
  // (on rt a worker or the pacer thread, where the throw ends the process).
  for (Backend backend : all_backends()) {
    SCOPED_TRACE(backend_name(backend));
    auto exec = make_executor(backend, topo_, Policy::kRws, registry_);
    TenantConfig cfg;
    cfg.name = "one-at-a-time";
    cfg.max_in_flight = 1;
    auto session = exec->open_session(cfg);
    // On rt, A must stay in flight while B is submitted, so that a session
    // submit of B would queue behind it. Sim never calls the closure.
    std::atomic<bool> gate{false};
    const WorkFn hold = [&gate](const ExecContext&) {
      while (!gate.load(std::memory_order_acquire)) busy_wait_ns(500);
    };
    const Dag a = small_dag(2, 20, hold);
    Dag b;
    b.add_node(ids_.matmul, Priority::kLow, TaskParams{16, 0, 0});
    b.node(0).rank = 1;
    const JobId ja = session->submit(a);  // released: fills the slot
    const SubmitOptions later{.arrival_offset_s = 1e-3};
    EXPECT_THROW(session->submit(b), PreconditionError);
    EXPECT_THROW(session->submit(b, later), PreconditionError);
    EXPECT_THROW(exec->submit(b), PreconditionError);
    EXPECT_THROW(exec->submit(b, later), PreconditionError);
    gate.store(true, std::memory_order_release);
    EXPECT_TRUE(exec->wait(ja).ok());
    EXPECT_EQ(session->counters().submitted, 1);
    EXPECT_TRUE(exec->drain().empty());  // the throws left no job behind
  }
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

}  // namespace
}  // namespace das
