// Tests for the das::Executor facade: the backend/policy string registries
// round-trip over every Table-1 name, the same DAG runs to completion on
// both backends through make_executor with consistent RunResult / stats
// shapes, the multi-rank factory works (and its pumped session path is
// independent of the DES thread count), and the unified seed default holds.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "exec/executor.hpp"
#include "kernels/registry.hpp"
#include "platform/affinity.hpp"
#include "rt/runtime.hpp"
#include "sim/engine.hpp"
#include "workloads/heat.hpp"
#include "workloads/synthetic_dag.hpp"

namespace das {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : topo_(Topology::tx2()) {
    ids_ = kernels::register_paper_kernels(registry_);
  }

  Dag small_dag(int parallelism = 3, int tasks = 60) {
    workloads::SyntheticDagSpec spec;
    spec.type = ids_.matmul;
    spec.parallelism = parallelism;
    spec.total_tasks = tasks;
    spec.params.p0 = 16;  // small tiles: fast
    return workloads::make_synthetic_dag(spec);
  }

  Topology topo_;
  TaskTypeRegistry registry_;
  kernels::PaperKernelIds ids_;
};

TEST(ExecutorParse, PolicyRoundTripsOverAllTable1NamesAndDheft) {
  for (Policy p : all_policies()) {
    const auto parsed = parse_policy(policy_name(p));
    ASSERT_TRUE(parsed.has_value()) << policy_name(p);
    EXPECT_EQ(*parsed, p);
  }
  const auto dheft = parse_policy(policy_name(Policy::kDheft));
  ASSERT_TRUE(dheft.has_value());
  EXPECT_EQ(*dheft, Policy::kDheft);
}

TEST(ExecutorParse, PolicyIsCaseInsensitive) {
  EXPECT_EQ(parse_policy("dam-c"), Policy::kDamC);
  EXPECT_EQ(parse_policy("DAM-C"), Policy::kDamC);
  EXPECT_EQ(parse_policy("rwsm-c"), Policy::kRwsmC);
  EXPECT_EQ(parse_policy("DHEFT"), Policy::kDheft);
  EXPECT_EQ(parse_policy("dHEFT"), Policy::kDheft);
}

TEST(ExecutorParse, PolicyRejectsUnknownNames) {
  EXPECT_FALSE(parse_policy("").has_value());
  EXPECT_FALSE(parse_policy("DAM").has_value());
  EXPECT_FALSE(parse_policy("HEFT").has_value());
  EXPECT_FALSE(parse_policy("DAM_C").has_value());
}

TEST(ExecutorParse, BackendRoundTripsAndAliases) {
  for (Backend b : all_backends()) {
    const auto parsed = parse_backend(backend_name(b));
    ASSERT_TRUE(parsed.has_value()) << backend_name(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_EQ(parse_backend("SIM"), Backend::kSim);
  EXPECT_EQ(parse_backend("des"), Backend::kSim);
  EXPECT_EQ(parse_backend("RT"), Backend::kRt);
  EXPECT_EQ(parse_backend("real"), Backend::kRt);
  EXPECT_FALSE(parse_backend("cuda").has_value());
  EXPECT_FALSE(parse_backend("").has_value());
}

TEST(ExecutorConfigDefaults, SeedIsUnifiedAcrossEntryPoints) {
  // The legacy entry points defaulted to different seeds (rt 7, sim 42);
  // the redesign pins all three to the single documented kDefaultSeed.
  EXPECT_EQ(ExecutorConfig{}.seed, kDefaultSeed);
  EXPECT_EQ(rt::RtOptions{}.seed, kDefaultSeed);
  EXPECT_EQ(sim::SimOptions{}.seed, kDefaultSeed);
}

TEST_F(ExecutorTest, SameDagCompletesOnBothBackendsWithConsistentShapes) {
  const Dag dag = small_dag();
  for (Backend backend : all_backends()) {
    SCOPED_TRACE(backend_name(backend));
    ExecutorConfig config;
    auto exec = make_executor(backend, topo_, Policy::kDamC, registry_, config);
    ASSERT_NE(exec, nullptr);
    EXPECT_EQ(exec->backend(), backend);
    EXPECT_EQ(exec->policy_kind(), Policy::kDamC);
    EXPECT_EQ(exec->num_ranks(), 1);
    EXPECT_EQ(exec->topology().num_cores(), topo_.num_cores());

    const RunResult r = exec->run(dag);
    EXPECT_GT(r.makespan_s, 0.0);
    EXPECT_EQ(r.tasks, dag.num_nodes());
    EXPECT_DOUBLE_EQ(r.tasks_per_s, dag.num_nodes() / r.makespan_s);
    EXPECT_EQ(r.backend, backend);
    EXPECT_EQ(r.policy, Policy::kDamC);

    // Stats snapshot shape is identical across backends.
    ASSERT_EQ(r.stats.size(), 1u);
    const StatsSnapshot& s = r.stats[0];
    EXPECT_EQ(s.tasks_total, dag.num_nodes());
    EXPECT_EQ(s.tasks_high + s.tasks_low, s.tasks_total);
    EXPECT_GT(s.tasks_high, 0);  // the generator marks one critical per layer
    ASSERT_EQ(s.busy_s.size(), static_cast<std::size_t>(topo_.num_cores()));
    EXPECT_GT(s.total_busy_s, 0.0);
    double busy_sum = 0.0;
    for (double b : s.busy_s) busy_sum += b;
    EXPECT_NEAR(busy_sum, s.total_busy_s, 1e-12);
    // Every distribution share refers to a valid place and they sum to 1.
    double share_sum = 0.0;
    for (const auto& [place, share] : s.high_distribution) {
      EXPECT_TRUE(topo_.is_valid_place(place));
      share_sum += share;
    }
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
  }
}

TEST_F(ExecutorTest, StatePersistsAcrossRunsAndClockIsMonotone) {
  for (Backend backend : all_backends()) {
    SCOPED_TRACE(backend_name(backend));
    auto exec = make_executor(backend, topo_, Policy::kDamC, registry_);
    double prev = exec->now();
    std::int64_t total = 0;
    for (int i = 0; i < 3; ++i) {
      const Dag dag = small_dag(2, 20);
      const RunResult r = exec->run(dag);
      total += r.tasks;
      EXPECT_EQ(r.stats[0].tasks_total, total);  // stats accumulate
      EXPECT_GE(exec->now(), prev);
      prev = exec->now();
    }
    // The PTT learned something (DAM-C explores every place eventually).
    std::uint64_t samples = 0;
    const Ptt& ptt = exec->ptt().table(ids_.matmul);
    for (int pid = 0; pid < topo_.num_places(); ++pid) samples += ptt.samples(pid);
    EXPECT_GT(samples, 0u);
  }
}

TEST_F(ExecutorTest, ScenarioFlowsThroughConfigOnBothBackends) {
  // A scenario passed via ExecutorConfig must reach the engine: under a
  // core-0 co-runner, DAM-C steers criticals off core 0 on the sim backend
  // (the rt backend is too timing-noisy on shared CI to assert placement).
  SpeedScenario scenario(topo_);
  scenario.add_cpu_corunner(0);
  ExecutorConfig config;
  config.scenario = &scenario;
  auto exec = make_executor(Backend::kSim, topo_, Policy::kDamC, registry_,
                            config);
  const RunResult r = exec->run(small_dag(2, 400));
  double on_core0 = 0.0;
  for (const auto& [place, share] : r.stats[0].high_distribution)
    if (place.leader == 0) on_core0 += share;
  EXPECT_LT(on_core0, 0.2);
}

TEST_F(ExecutorTest, SimBackendIsDeterministicThroughFacade) {
  auto run_once = [&] {
    ExecutorConfig config;
    config.seed = 99;
    auto exec = make_executor(Backend::kSim, topo_, Policy::kDamP, registry_,
                              config);
    return exec->run(small_dag(4, 200)).makespan_s;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST_F(ExecutorTest, TimelineIsRecordedBySimBackendOnly) {
  Timeline timeline;
  ExecutorConfig config;
  config.timeline = &timeline;

  auto sim = make_executor(Backend::kSim, topo_, Policy::kDamC, registry_,
                           config);
  sim->run(small_dag(2, 20));
  EXPECT_GT(timeline.size(), 0u);

  // The rt engine records no timeline yet.
  timeline.clear();
  auto rt = make_executor(Backend::kRt, topo_, Policy::kDamC, registry_,
                          config);
  rt->run(small_dag(2, 20));
  EXPECT_EQ(timeline.size(), 0u);
}

TEST_F(ExecutorTest, MultiRankFactoryBuildsSimAndRejectsRt) {
  const std::vector<sim::RankSpec> ranks(2, sim::RankSpec{&topo_, nullptr});

  auto exec = make_executor(Backend::kSim, ranks, Policy::kDamC, registry_);
  EXPECT_EQ(exec->num_ranks(), 2);

  Dag dag;
  const NodeId a = dag.add_node(ids_.matmul, Priority::kLow, {.p0 = 16});
  const NodeId b = dag.add_node(ids_.matmul, Priority::kLow, {.p0 = 16});
  dag.node(b).rank = 1;
  dag.add_edge(a, b, /*delay_s=*/1e-5);
  const RunResult r = exec->run(dag);
  ASSERT_EQ(r.stats.size(), 2u);
  EXPECT_EQ(r.stats[0].tasks_total, 1);
  EXPECT_EQ(r.stats[1].tasks_total, 1);

  EXPECT_THROW(make_executor(Backend::kRt, ranks, Policy::kDamC, registry_),
               PreconditionError);
  EXPECT_THROW(make_executor(Backend::kSim, {}, Policy::kDamC, registry_),
               PreconditionError);
}

/// The sim facade pumps a multi-rank engine until each service notification
/// (job done, arrival and deadline timers): a session stream through
/// make_executor(kSim, ranks, ...) — two weighted tenants, staggered arrival
/// offsets, a queueing deadline and one wait_for that gives up first — must
/// give the same RunResults at des_threads 1 and 4, and its opening bare
/// job must equal SimEngine::run.
TEST_F(ExecutorTest, MultiRankSessionStreamEqualAcrossDesThreads) {
  workloads::HeatConfig heat;
  heat.rows = 96;
  heat.cols = 48;
  heat.ranks = 4;
  heat.iterations = 4;
  heat.tasks_per_rank = 3;
  heat.net_latency_s = 30e-6;
  const Dag dag =
      workloads::make_heat_sim_dag(heat, ids_.heat_compute, ids_.comm);
  const Topology haswell = Topology::haswell20();
  const Topology small = Topology::symmetric(2, 3, 1.0);
  const std::vector<sim::RankSpec> ranks = {
      sim::RankSpec{&topo_, nullptr}, sim::RankSpec{&haswell, nullptr},
      sim::RankSpec{&small, nullptr}, sim::RankSpec{&topo_, nullptr}};

  sim::SimOptions direct;
  direct.seed = kDefaultSeed;
  sim::SimEngine eng(ranks, Policy::kDamC, registry_, direct);
  const double engine_makespan = eng.run(dag);

  struct Stream {
    double bare_makespan = 0.0;
    bool wait_for_finished = true;
    double now_after_wait_for = 0.0;
    std::vector<RunResult> results;  // drain_grouped order
    double end_now = 0.0;
  };
  const auto run_stream = [&](int des_threads) {
    auto exec = make_executor(Backend::kSim, ranks, Policy::kDamC, registry_,
                              {.seed = kDefaultSeed,
                               .service = {.max_service_inflight = 3},
                               .sim = {.des_threads = des_threads}});
    Stream out;
    out.bare_makespan = exec->run(dag).makespan_s;
    TenantConfig light;
    light.name = "light";
    light.max_in_flight = 1;
    TenantConfig heavy;
    heavy.name = "heavy";
    heavy.weight = 3.0;
    heavy.max_in_flight = 2;
    auto sl = exec->open_session(light);
    auto sh = exec->open_session(heavy);
    std::vector<JobId> ids;
    for (int i = 0; i < 6; ++i) {
      SubmitOptions so;
      so.arrival_offset_s = 40e-6 * i;
      if (i == 4) so.deadline_s = 5e-6;  // still queued then: times out
      ids.push_back((i % 2 == 0 ? sl : sh)->submit(dag, so));
    }
    const std::optional<RunResult> early = exec->wait_for(ids[1], 20e-6);
    out.wait_for_finished = early.has_value();
    out.now_after_wait_for = exec->now();
    for (const TenantResults& group : exec->drain_grouped())
      for (const RunResult& r : group.results) out.results.push_back(r);
    out.end_now = exec->now();
    return out;
  };

  const Stream serial = run_stream(1);
  const Stream parallel = run_stream(4);
  EXPECT_EQ(serial.bare_makespan, engine_makespan);
  EXPECT_EQ(parallel.bare_makespan, engine_makespan);
  EXPECT_FALSE(serial.wait_for_finished);  // the deadline path really ran
  EXPECT_EQ(serial.wait_for_finished, parallel.wait_for_finished);
  EXPECT_EQ(serial.now_after_wait_for, parallel.now_after_wait_for);
  EXPECT_EQ(serial.end_now, parallel.end_now);
  ASSERT_EQ(serial.results.size(), 6u);
  ASSERT_EQ(parallel.results.size(), serial.results.size());
  int timed_out = 0;
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    const RunResult& a = serial.results[i];
    const RunResult& b = parallel.results[i];
    EXPECT_EQ(a.job, b.job) << i;
    EXPECT_EQ(a.tenant, b.tenant) << i;
    EXPECT_EQ(a.outcome, b.outcome) << i;
    EXPECT_EQ(a.makespan_s, b.makespan_s) << i;
    EXPECT_EQ(a.queue_s, b.queue_s) << i;
    EXPECT_EQ(a.arrival_s, b.arrival_s) << i;
    if (a.outcome == RunResult::Outcome::kTimedOut) ++timed_out;
  }
  EXPECT_EQ(timed_out, 1);
}

TEST_F(ExecutorTest, ConfigScenarioIsFallbackForScenarioLessRanks) {
  // A driver migrating from the single-topology overload must not lose its
  // scenario: ranks without their own scenario inherit config.scenario.
  SpeedScenario scenario(topo_);
  scenario.add_cpu_corunner(0);
  const std::vector<sim::RankSpec> ranks{{&topo_, nullptr}};
  ExecutorConfig config;
  config.scenario = &scenario;
  auto exec = make_executor(Backend::kSim, ranks, Policy::kDamC, registry_,
                            config);
  const RunResult r = exec->run(small_dag(2, 400));
  double on_core0 = 0.0;
  for (const auto& [place, share] : r.stats[0].high_distribution)
    if (place.leader == 0) on_core0 += share;
  EXPECT_LT(on_core0, 0.2) << "config.scenario did not reach the rank";
}

TEST_F(ExecutorTest, SingleRankSpecScenarioReachesRtBackend) {
  // The rank-spec overload forwards the spec's scenario to the rt engine;
  // construction alone must succeed and expose the right topology.
  SpeedScenario scenario(topo_);
  scenario.add_cpu_corunner(0);
  const std::vector<sim::RankSpec> ranks{{&topo_, &scenario}};
  auto exec = make_executor(Backend::kRt, ranks, Policy::kDamC, registry_);
  EXPECT_EQ(exec->backend(), Backend::kRt);
  EXPECT_EQ(exec->num_ranks(), 1);
  const RunResult r = exec->run(small_dag(2, 20));
  EXPECT_EQ(r.stats[0].tasks_total, 20);
}

}  // namespace
}  // namespace das
