// Parallel-vs-serial equality for the conservative windowed DES
// (sim/engine.cpp). The parallel mode (SimOptions::des_threads > 1) must
// reproduce the serial engine BITWISE: identical makespans, identical
// per-rank event counts, identical per-rank FNV-1a trace hashes (every
// processed event folded in order), for every policy, multiple seeds,
// asymmetric per-rank topologies, and cross-rank delay edges. A
// tiny-lookahead case forces many small windows and a burst case stages
// 1,200 releases in one window — the stress cells the sanitizer CI job
// leans on.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kernels/registry.hpp"
#include "platform/topology.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "workloads/heat.hpp"

namespace das::sim {
namespace {

struct CellResult {
  double makespan = 0.0;
  double lookahead = 0.0;
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint64_t> events;

  bool operator==(const CellResult& o) const {
    return makespan == o.makespan && lookahead == o.lookahead &&
           hashes == o.hashes && events == o.events;
  }
};

class ParallelDesTest : public ::testing::Test {
 protected:
  ParallelDesTest()
      : tx2_(Topology::tx2()),
        haswell_(Topology::haswell20()),
        small_(Topology::symmetric(2, 3, 1.0)) {
    ids_ = kernels::register_paper_kernels(registry_);
  }

  /// Three scheduling domains with deliberately different shapes: a
  /// big.LITTLE part, a 20-core server node, and a small symmetric node.
  std::vector<RankSpec> asymmetric_ranks() const {
    return {RankSpec{&tx2_, nullptr}, RankSpec{&haswell_, nullptr},
            RankSpec{&small_, nullptr}};
  }

  Dag heat_dag(int ranks, double net_latency_s = 30e-6) const {
    workloads::HeatConfig cfg;
    cfg.rows = 96;
    cfg.cols = 48;
    cfg.ranks = ranks;
    cfg.iterations = 4;
    cfg.tasks_per_rank = 3;
    cfg.net_latency_s = net_latency_s;
    return workloads::make_heat_sim_dag(cfg, ids_.heat_compute, ids_.comm);
  }

  CellResult run_cell(const std::vector<RankSpec>& ranks, const Dag& dag,
                      Policy policy, int des_threads, std::uint64_t seed,
                      int jobs = 1) {
    SimOptions o;
    o.seed = seed;
    o.des_threads = des_threads;
    o.hash_traces = true;
    SimEngine eng(ranks, policy, registry_, o);
    CellResult res;
    for (int j = 0; j < jobs; ++j) res.makespan = eng.run(dag);
    res.lookahead = eng.lookahead_s();
    for (int r = 0; r < static_cast<int>(ranks.size()); ++r) {
      res.hashes.push_back(eng.trace_hash(r));
      res.events.push_back(eng.events_processed(r));
    }
    return res;
  }

  Topology tx2_, haswell_, small_;
  TaskTypeRegistry registry_;
  kernels::PaperKernelIds ids_;
};

/// The full equality grid: every catalog scenario x policy x seed over
/// three asymmetric ranks joined by cross-rank delay edges — the
/// golden-grid shape of sim_determinism_test.
TEST_F(ParallelDesTest, ThreeRankGridBitwiseEqual) {
  const Dag dag = heat_dag(3);
  const Topology* topos[] = {&tx2_, &haswell_, &small_};
  const Policy policies[] = {Policy::kRws, Policy::kFamC, Policy::kDamC,
                             Policy::kDamP};
  const std::uint64_t seeds[] = {kDefaultSeed, 1234u};
  for (const std::string& sc_name : scenario::catalog_names()) {
    const scenario::ScenarioSpec spec = *scenario::find_catalog(sc_name);
    std::vector<SpeedScenario> scenarios;
    for (const Topology* t : topos)
      scenarios.push_back(scenario::build(spec, *t));
    std::vector<RankSpec> ranks;
    for (std::size_t r = 0; r < 3; ++r)
      ranks.push_back(RankSpec{topos[r], &scenarios[r]});
    for (Policy p : policies) {
      for (std::uint64_t seed : seeds) {
        const CellResult serial = run_cell(ranks, dag, p, 1, seed);
        const CellResult par = run_cell(ranks, dag, p, 3, seed);
        EXPECT_TRUE(serial == par)
            << "scenario=" << sc_name << " policy=" << static_cast<int>(p)
            << " seed=" << seed << " serial=" << serial.makespan
            << " parallel=" << par.makespan;
        EXPECT_GT(serial.makespan, 0.0);
        for (std::uint64_t ev : serial.events) EXPECT_GT(ev, 0u);
      }
    }
  }
}

/// des_threads beyond the rank count clamps; results stay identical.
TEST_F(ParallelDesTest, OversubscribedThreadsClampToRanks) {
  const Dag dag = heat_dag(3);
  const auto ranks = asymmetric_ranks();
  const CellResult serial =
      run_cell(ranks, dag, Policy::kDamC, 1, kDefaultSeed);
  const CellResult par = run_cell(ranks, dag, Policy::kDamC, 16, kDefaultSeed);
  EXPECT_TRUE(serial == par);
}

/// Fail-stop faults are rank-local events inside the windowed protocol: a
/// per-rank FaultPlan (resolve_faults keeps core 0 of each rank alive, so
/// no rank ever leaves the protocol) must replay bitwise across serial and
/// parallel window execution — including the reclaim/re-release recovery.
TEST_F(ParallelDesTest, FailStopFaultsBitwiseEqualAcrossDesThreads) {
  const Dag dag = heat_dag(3);
  const Topology* topos[] = {&tx2_, &haswell_, &small_};

  // Clean serial probe sizes the onset so the kills land mid-run on every
  // rank's schedule.
  const CellResult clean =
      run_cell(asymmetric_ranks(), dag, Policy::kDamC, 1, kDefaultSeed);

  scenario::ScenarioSpec spec;
  spec.name = "parallel-fail";
  spec.faults.push_back(scenario::FaultSpec{
      .kind = scenario::FaultSpec::Kind::kFail,
      .cores = {},
      .cluster = scenario::FaultSpec::kNoCluster,
      .fraction = 0.25,
      .t_s = clean.makespan * 0.3,
      .duration_s = 0.0,
      .slowdown = 0.0});
  std::vector<FaultPlan> plans;
  for (const Topology* t : topos)
    plans.push_back(scenario::resolve_faults(spec, *t));
  std::vector<RankSpec> ranks;
  for (std::size_t r = 0; r < plans.size(); ++r)
    ranks.push_back(RankSpec{topos[r], nullptr, &plans[r]});

  struct FaultyRun {
    CellResult cell;
    std::uint64_t reexecuted = 0;
    int failed = 0;
  };
  const auto run_faulty = [&](int des_threads) {
    SimOptions o;
    o.seed = kDefaultSeed;
    o.des_threads = des_threads;
    o.hash_traces = true;
    SimEngine eng(ranks, Policy::kDamC, registry_, o);
    FaultyRun res;
    res.cell.makespan = eng.run(dag);
    res.cell.lookahead = eng.lookahead_s();
    for (int r = 0; r < static_cast<int>(ranks.size()); ++r) {
      res.cell.hashes.push_back(eng.trace_hash(r));
      res.cell.events.push_back(eng.events_processed(r));
    }
    res.reexecuted = eng.tasks_reexecuted();
    res.failed = eng.cores_failed();
    return res;
  };

  const FaultyRun serial = run_faulty(1);
  const FaultyRun par = run_faulty(3);
  // tx2 and small lose 2 cores each, haswell20 loses 5.
  EXPECT_EQ(serial.failed, 9);
  EXPECT_TRUE(serial.cell == par.cell);
  EXPECT_EQ(serial.reexecuted, par.reexecuted);
  EXPECT_EQ(serial.failed, par.failed);
  // And the faulty schedule is genuinely different from the clean one.
  EXPECT_NE(serial.cell.hashes, clean.hashes);
}

/// A single-rank engine has nothing to parallelize: des_threads is ignored
/// and the historical single-rank event loop runs unchanged.
TEST_F(ParallelDesTest, SingleRankIgnoresDesThreads) {
  const Dag dag = heat_dag(1);
  const std::vector<RankSpec> one = {RankSpec{&haswell_, nullptr}};
  const CellResult serial = run_cell(one, dag, Policy::kDamC, 1, kDefaultSeed);
  const CellResult par = run_cell(one, dag, Policy::kDamC, 4, kDefaultSeed);
  EXPECT_TRUE(serial == par);
}

/// Tiny cross-rank delay -> tiny lookahead -> many small windows with
/// boundary traffic in nearly every round. This is the schedule-stress
/// shape; under TSan it doubles as the data-race stress for the window
/// protocol.
TEST_F(ParallelDesTest, TinyLookaheadManyWindows) {
  const Dag dag = heat_dag(3, /*net_latency_s=*/1e-9);
  const auto ranks = asymmetric_ranks();
  const CellResult serial =
      run_cell(ranks, dag, Policy::kDamC, 1, kDefaultSeed);
  const CellResult par = run_cell(ranks, dag, Policy::kDamC, 3, kDefaultSeed);
  EXPECT_TRUE(serial == par);
  EXPECT_GT(serial.lookahead, 0.0);
  EXPECT_LT(serial.lookahead, 1e-6);  // the tiny latency really took effect
}

/// One rank-0 task releases 1,200 rank-1 tasks over edges of equal delay,
/// so a single window stages every release into one (sender, receiver)
/// boundary buffer. The receiver must get all of them, in push order, at
/// any thread count.
TEST_F(ParallelDesTest, CrossRankBurstInOneWindow) {
  constexpr int kBurst = 1200;
  Dag dag;
  TaskParams p;
  p.p0 = 16;
  const NodeId root = dag.add_node(ids_.matmul, Priority::kLow, p);
  for (int i = 0; i < kBurst; ++i) {
    const NodeId n = dag.add_node(ids_.matmul, Priority::kLow, p);
    dag.node(n).rank = 1;
    dag.add_edge(root, n, /*delay_s=*/20e-6);
  }
  const std::vector<RankSpec> ranks = {RankSpec{&tx2_, nullptr},
                                       RankSpec{&small_, nullptr}};
  const auto run = [&](int des_threads) {
    SimOptions o;
    o.des_threads = des_threads;
    o.hash_traces = true;
    SimEngine eng(ranks, Policy::kRws, registry_, o);
    CellResult res;
    res.makespan = eng.run(dag);
    res.lookahead = eng.lookahead_s();
    std::int64_t tasks = 0;
    for (int r = 0; r < 2; ++r) {
      res.hashes.push_back(eng.trace_hash(r));
      res.events.push_back(eng.events_processed(r));
      tasks += eng.stats(r).tasks_total();
    }
    EXPECT_EQ(tasks, dag.num_nodes()) << "des_threads " << des_threads;
    return res;
  };
  const CellResult serial = run(1);
  const CellResult par = run(2);
  EXPECT_TRUE(serial == par) << "serial=" << serial.makespan
                             << " parallel=" << par.makespan;
  EXPECT_EQ(serial.lookahead, 20e-6);
  EXPECT_GT(serial.events[1], static_cast<std::uint64_t>(kBurst));
}

/// Back-to-back jobs on a persistent engine: the windowed protocol must
/// stay bitwise equal across the submit/wait boundary (virtual clock and
/// PTT state carry over between jobs).
TEST_F(ParallelDesTest, MultiJobPersistentEngineEqual) {
  const Dag dag = heat_dag(3);
  const auto ranks = asymmetric_ranks();
  const CellResult serial =
      run_cell(ranks, dag, Policy::kRwsmC, 1, kDefaultSeed, /*jobs=*/2);
  const CellResult par =
      run_cell(ranks, dag, Policy::kRwsmC, 3, kDefaultSeed, /*jobs=*/2);
  EXPECT_TRUE(serial == par);
}

/// A multi-rank pump delivers its service notifications in (virtual time,
/// job id / timer token) order, whichever shard recorded them. Two
/// symmetric ranks run a stream of heat jobs, three in flight with
/// staggered arrivals, so several jobs' last tasks finish on both ranks
/// inside one window, and timers fire among them. Each job-done hook
/// submits the next job, alternating between two DAGs, so a reordered
/// delivery would also change the results. Twenty runs each at des_threads
/// 1 and 4 must record one hook order and one set of makespans.
TEST_F(ParallelDesTest, JobDoneHookOrderIndependentOfThreadTiming) {
  const std::vector<RankSpec> ranks = {RankSpec{&small_, nullptr},
                                       RankSpec{&small_, nullptr}};
  workloads::HeatConfig cfg;
  cfg.rows = 96;
  cfg.cols = 48;
  cfg.ranks = 2;
  cfg.iterations = 4;
  cfg.tasks_per_rank = 3;
  cfg.net_latency_s = 500e-6;  // wide windows: many completions per window
  const Dag a = workloads::make_heat_sim_dag(cfg, ids_.heat_compute, ids_.comm);
  cfg.iterations = 3;
  const Dag b = workloads::make_heat_sim_dag(cfg, ids_.heat_compute, ids_.comm);

  struct Note {
    bool timer = false;
    std::uint64_t id = 0;
    double t = 0.0;
    bool operator==(const Note&) const = default;
  };
  struct Stream {
    std::vector<Note> hooks;
    std::vector<double> makespans;
    bool operator==(const Stream&) const = default;
  };
  constexpr std::size_t kJobs = 12;
  const auto run_stream = [&](int des_threads) {
    SimOptions o;
    o.des_threads = des_threads;
    SimEngine eng(ranks, Policy::kDamC, registry_, o);
    Stream out;
    std::vector<JobId> ids;
    eng.set_service_hooks(
        [&](JobId id, double t) {
          out.hooks.push_back(Note{false, static_cast<std::uint64_t>(id), t});
          if (ids.size() < kJobs)
            ids.push_back(eng.submit(ids.size() % 2 == 0 ? a : b));
        },
        [&](std::uint64_t token, double t) {
          out.hooks.push_back(Note{true, token, t});
        });
    for (int i = 0; i < 3; ++i) ids.push_back(eng.submit(a, 2e-6 * i));
    for (std::uint64_t k = 0; k < 8; ++k) eng.schedule_timer(400e-6 * k, k);
    // Index loop: the hooks append to `ids` while we wait.
    for (std::size_t i = 0; i < ids.size(); ++i)
      out.makespans.push_back(eng.wait(ids[i]));
    return out;
  };

  const Stream ref = run_stream(1);
  ASSERT_EQ(ref.makespans.size(), kJobs);
  ASSERT_EQ(ref.hooks.size(), kJobs + 8);
  for (int rep = 0; rep < 20; ++rep) {
    for (const int threads : {1, 4}) {
      const Stream got = run_stream(threads);
      EXPECT_TRUE(got == ref) << "des_threads " << threads << ", run " << rep;
    }
  }
}

/// The conservative lookahead is the minimum cross-rank edge delay over
/// all submitted DAGs, monotone under further submissions, and identical
/// however many threads run the windows.
TEST_F(ParallelDesTest, LookaheadTracksMinCrossRankDelay) {
  const auto ranks = asymmetric_ranks();
  SimOptions o;
  o.hash_traces = true;
  SimEngine eng(ranks, Policy::kDamC, registry_, o);
  EXPECT_TRUE(std::isinf(eng.lookahead_s()));  // no cross-rank edges yet
  eng.run(heat_dag(3, /*net_latency_s=*/50e-6));
  const double wide = eng.lookahead_s();
  EXPECT_GE(wide, 50e-6);  // latency is a floor under the wire delay
  eng.run(heat_dag(3, /*net_latency_s=*/2e-6));
  EXPECT_LT(eng.lookahead_s(), wide);  // monotone min over submissions
}

}  // namespace
}  // namespace das::sim
