// Tests for the net front-end (net/wire.hpp + net/service.hpp): DAG wire
// round-trips, and remote submission through a served executor rank
// producing results identical to running the same executor locally (the
// determinism acceptance criterion for scheduler-as-a-service).

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "kernels/registry.hpp"
#include "net/service.hpp"
#include "net/wire.hpp"
#include "net/world.hpp"
#include "workloads/synthetic_dag.hpp"

namespace das {
namespace {

class NetServiceTest : public ::testing::Test {
 protected:
  NetServiceTest() : topo_(Topology::tx2()) {
    ids_ = kernels::register_paper_kernels(registry_);
  }

  Dag paper_dag(int parallelism = 4, int tasks = 40) {
    workloads::SyntheticDagSpec spec;
    spec.type = ids_.matmul;
    spec.parallelism = parallelism;
    spec.total_tasks = tasks;
    spec.params.p0 = 16;
    return workloads::make_synthetic_dag(spec);
  }

  std::unique_ptr<Executor> fresh_sim() {
    return make_executor(Backend::kSim, topo_, Policy::kDamC, registry_,
                         {.seed = 2020});
  }

  Topology topo_;
  TaskTypeRegistry registry_;
  kernels::PaperKernelIds ids_;
};

TEST_F(NetServiceTest, DagWireRoundTripPreservesStructure) {
  Dag dag = paper_dag(3, 30);
  // Exercise the non-default node fields too.
  dag.node(0).rank = 1;
  dag.node(1).affinity_core = 2;
  dag.node(2).phase = 7;
  net::WireWriter w;
  net::encode_dag(dag, w);
  net::WireReader r(w.data(), w.size());
  const Dag copy = net::decode_dag(r);
  EXPECT_EQ(r.remaining(), 0u);
  ASSERT_EQ(copy.num_nodes(), dag.num_nodes());
  ASSERT_EQ(copy.num_edges(), dag.num_edges());
  for (NodeId id = 0; id < dag.num_nodes(); ++id) {
    const DagNode& a = dag.node(id);
    const DagNode& b = copy.node(id);
    EXPECT_EQ(a.type, b.type) << "node " << id;
    EXPECT_EQ(a.priority, b.priority) << "node " << id;
    EXPECT_DOUBLE_EQ(a.params.p0, b.params.p0) << "node " << id;
    EXPECT_EQ(a.rank, b.rank) << "node " << id;
    EXPECT_EQ(a.affinity_core, b.affinity_core) << "node " << id;
    EXPECT_EQ(a.phase, b.phase) << "node " << id;
    ASSERT_EQ(copy.num_successors(id), dag.num_successors(id)) << "node " << id;
    auto ita = dag.successors(id).begin();
    auto itb = copy.successors(id).begin();
    for (std::size_t j = 0; j < dag.num_successors(id); ++j, ++ita, ++itb) {
      EXPECT_EQ(ita->to, itb->to);
      EXPECT_DOUBLE_EQ(ita->delay_s, itb->delay_s);
    }
  }
}

TEST_F(NetServiceTest, MalformedDagPayloadThrows) {
  net::WireWriter w;
  w.pod(std::uint32_t{0xdeadbeef});  // wrong magic
  w.pod(std::uint16_t{1});
  net::WireReader r1(w.data(), w.size());
  EXPECT_THROW(net::decode_dag(r1), PreconditionError);

  net::WireWriter ok;
  net::encode_dag(paper_dag(2, 10), ok);
  net::WireReader r2(ok.data(), ok.size() / 2);  // truncated
  EXPECT_THROW(net::decode_dag(r2), PreconditionError);

  // Forged 26-byte headers: counts the payload cannot hold are rejected
  // before anything is reserved, not as a length_error or bad_alloc.
  struct Forged {
    std::int32_t nodes;
    std::uint64_t edges;
  };
  for (const Forged f : {Forged{0, ~std::uint64_t{0}},
                         Forged{0, std::uint64_t{1} << 40},
                         Forged{0, std::uint64_t{1} << 28},
                         Forged{1 << 30, 0}}) {
    net::WireWriter h;
    h.pod(std::uint32_t{0x44414731});  // "DAG1"
    h.pod(std::uint16_t{1});
    h.pod(f.nodes);
    h.pod(f.edges);
    h.pod(std::uint64_t{0});
    ASSERT_EQ(h.size(), 26u);
    net::WireReader r(h.data(), h.size());
    EXPECT_THROW(net::decode_dag(r), PreconditionError)
        << f.nodes << " nodes, " << f.edges << " edges";
  }
}

TEST_F(NetServiceTest, RunResultWireRoundTrip) {
  net::WireRunResult in;
  in.makespan_s = 1.25;
  in.tasks_per_s = 32.0;
  in.tasks = 40;
  in.job = 7;
  in.arrival_s = 0.5;
  in.queue_s = 0.125;
  in.tenant = "team-a";
  in.backend = 0;
  in.policy = 3;
  in.outcome = 2;  // kTimedOut
  in.tasks_reexecuted = 5;
  net::WireWriter w;
  net::encode_run_result(in, w);
  net::WireReader r(w.data(), w.size());
  const net::WireRunResult out = net::decode_run_result(r);
  EXPECT_EQ(out.makespan_s, in.makespan_s);
  EXPECT_EQ(out.tasks_per_s, in.tasks_per_s);
  EXPECT_EQ(out.tasks, in.tasks);
  EXPECT_EQ(out.job, in.job);
  EXPECT_EQ(out.arrival_s, in.arrival_s);
  EXPECT_EQ(out.queue_s, in.queue_s);
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_EQ(out.policy, in.policy);
  EXPECT_EQ(out.outcome, in.outcome);
  EXPECT_EQ(out.tasks_reexecuted, in.tasks_reexecuted);
}

TEST_F(NetServiceTest, RemoteSubmissionMatchesLocalRunBitwise) {
  // Acceptance criterion: submitting a DAG to a served executor rank over
  // the wire yields results IDENTICAL to running the same (same-seed, same
  // config) executor locally — the DES never calls work closures, so the
  // serialized cost-model DAG reproduces the local schedule bit for bit.
  const Dag dag = paper_dag(4, 40);

  auto local = fresh_sim();
  const RunResult want = local->run(dag);

  net::WireRunResult got;
  net::World world(2);
  world.run([&](net::Comm& comm) {
    if (comm.rank() == 0) {
      auto exec = fresh_sim();
      net::serve_executor(comm, *exec);
    } else {
      net::ServiceClient client(comm, /*server_rank=*/0);
      const JobId id = client.submit(dag);
      got = client.wait(id);
      client.bye();
    }
  });

  EXPECT_EQ(got.makespan_s, want.makespan_s);  // bitwise, not approximate
  EXPECT_EQ(got.tasks_per_s, want.tasks_per_s);
  EXPECT_EQ(got.tasks, want.tasks);
  EXPECT_EQ(got.arrival_s, want.arrival_s);
  EXPECT_EQ(static_cast<Backend>(got.backend), want.backend);
  EXPECT_EQ(static_cast<Policy>(got.policy), want.policy);
  EXPECT_TRUE(got.ok());
}

TEST_F(NetServiceTest, MultiClientSessionsOverTheWire) {
  // Two client ranks, each with its own remote session: every submission
  // completes under the right tenant name and the per-client ids resolve.
  constexpr int kClients = 2;
  constexpr int kJobsEach = 3;
  std::vector<std::vector<net::WireRunResult>> results(kClients);
  net::World world(kClients + 1);
  world.run([&](net::Comm& comm) {
    if (comm.rank() == 0) {
      auto exec = make_executor(Backend::kSim, topo_, Policy::kRws, registry_,
                                {.seed = 9});
      net::serve_executor(comm, *exec);
      return;
    }
    net::ServiceClient client(comm, 0);
    TenantConfig cfg;
    cfg.name = "client-" + std::to_string(comm.rank());
    cfg.weight = static_cast<double>(comm.rank());
    cfg.max_in_flight = 2;
    const int session = client.open_session(cfg);
    const Dag dag = paper_dag(3, 30);
    std::vector<JobId> ids;
    for (int j = 0; j < kJobsEach; ++j)
      ids.push_back(client.submit(dag, {}, session));
    for (JobId id : ids)
      results[static_cast<std::size_t>(comm.rank() - 1)].push_back(
          client.wait(id));
    client.bye();
  });

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(results[static_cast<std::size_t>(c)].size(),
              static_cast<std::size_t>(kJobsEach));
    for (const net::WireRunResult& r : results[static_cast<std::size_t>(c)]) {
      EXPECT_EQ(r.tenant, "client-" + std::to_string(c + 1));
      EXPECT_EQ(r.tasks, 30);
      EXPECT_GT(r.makespan_s, 0.0);
      EXPECT_TRUE(r.ok());
    }
  }
}

TEST_F(NetServiceTest, ResubmitTokenIsIdempotent) {
  // At-least-once client retry, exactly-once server submission: re-sending
  // a submit with the SAME idempotency token returns the original JobId and
  // enqueues nothing (one job's worth of tasks runs, not two).
  net::World world(2);
  world.run([&](net::Comm& comm) {
    if (comm.rank() == 0) {
      auto exec = fresh_sim();
      net::serve_executor(comm, *exec);
      return;
    }
    net::ServiceClient client(comm, 0);
    const Dag dag = paper_dag(3, 30);
    const JobId first = client.resubmit(dag, {}, /*session=*/-1, /*token=*/77);
    const JobId again = client.resubmit(dag, {}, /*session=*/-1, /*token=*/77);
    EXPECT_EQ(first, again);
    const net::WireRunResult r = client.wait(first);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.tasks, 30);
    // A fresh token is a genuinely new job.
    const JobId other = client.resubmit(dag, {}, /*session=*/-1, /*token=*/78);
    EXPECT_NE(other, first);
    EXPECT_TRUE(client.wait(other).ok());
    client.bye();
  });
}

TEST_F(NetServiceTest, ClientWaitForTimesOutThenCompletes) {
  // The bounded remote wait: a too-short bound replies "not yet" and the
  // job stays waitable; a generous bound delivers the normal result. ping()
  // rides along as the zero-cost liveness refresh.
  net::World world(2);
  world.run([&](net::Comm& comm) {
    if (comm.rank() == 0) {
      auto exec = fresh_sim();
      net::serve_executor(comm, *exec);
      return;
    }
    net::ServiceClient client(comm, 0);
    client.ping();
    const JobId id = client.submit(paper_dag(4, 40));
    const std::optional<net::WireRunResult> first = client.wait_for(id, 0.0);
    EXPECT_FALSE(first.has_value());
    const std::optional<net::WireRunResult> second = client.wait_for(id, 60.0);
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(second->ok());
    EXPECT_EQ(second->tasks, 40);
    client.bye();
  });
}

TEST_F(NetServiceTest, ServerReapsDeadClient) {
  // Fail-stop client: rank 2 submits a job and VANISHES without bye.
  // A reaping server must notice the silence, drain the orphan job, count
  // the seat as departed, and still return — world.run() completing is the
  // liveness assertion (a non-reaping server would block forever).
  net::WireRunResult live_result;
  net::World world(3);
  world.run([&](net::Comm& comm) {
    if (comm.rank() == 0) {
      auto exec = fresh_sim();
      net::ServeOptions opts;
      opts.client_timeout_s = 0.25;
      opts.tick_s = 0.02;
      net::serve_executor(comm, *exec, opts);
      return;
    }
    net::ServiceClient client(comm, 0);
    if (comm.rank() == 2) {
      client.submit(paper_dag(3, 30));
      return;  // fail-stop: no wait, no bye
    }
    // Rank 1 stays live well past rank 2's reaping (pings keep its seat).
    const JobId id = client.submit(paper_dag(4, 40));
    live_result = client.wait(id);
    for (int i = 0; i < 30; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      client.ping();
    }
    client.bye();
  });
  EXPECT_TRUE(live_result.ok());
  EXPECT_EQ(live_result.tasks, 40);
}

}  // namespace
}  // namespace das
