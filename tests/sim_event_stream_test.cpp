// Event-stream goldens for the discrete-event engine.
//
// sim_determinism_test pins virtual makespans; this test pins the event
// stream itself: per rank, the number of events processed and the FNV-1a
// trace hash over every processed event (SimOptions::hash_traces). Two
// engines with equal rows popped the same events, with the same payloads,
// at the same virtual instants, in the same order.
//
// The hot paths that handle an event without a queue round trip must keep
// that stream: a completion whose zero-delay releases pop next runs them in
// its own handler, and a handler's wake of its own core that precedes
// every queued event pops from a one-item slot of the event queue. The
// cells are chosen so that each branch of both mechanisms is reached:
//   - paper kernels on TX2 x {dvfs-wave, interference-burst} x
//     {RWS, DAM-C, dHEFT}: fused releases, slot hits and misses, direct
//     wakes that precede a held slot item;
//   - RWS on symmetric shards of 64 and 80 cores: victim selection over
//     one bitmap word and over several;
//   - a noiseless fixed-cost DAG on a symmetric topology under dHEFT:
//     participations start together, so completions tie at one instant and
//     a completion with successors finds other events queued at its own
//     time (its releases must stay in the queue);
//   - a single-rank DAG with delayed local edges (releases that cannot
//     run in the completion's handler);
//   - the fail-stop catalog scenario and a freeze fault (events dropped or
//     re-pushed by the fault machinery);
//   - the 4-rank halo DAG and the heat DAG at des_threads 1 and 4 (the
//     window loop, cross-rank releases staged next to fused local ones),
//     and 4 ranks without cross-rank edges (one window of infinite
//     horizon that must stop when the queues drain);
//   - a session stream that stops pumps at a horizon right after events
//     that leave work queued, then submits a job at the same instant (the
//     queue must order the new roots before any held wake, and a
//     completion past the horizon must leave its releases queued).
//
// The rows were generated at commit b8412b1d39da202ce19221366b5faa7688e7a03d,
// before either mechanism existed. To regenerate after an INTENDED change
// of the event stream:
//   DAS_PRINT_GOLDENS=1 ./sim_event_stream_test
// and paste the printed rows over kGoldens below.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "kernels/cost_models.hpp"
#include "kernels/registry.hpp"
#include "platform/fault_plan.hpp"
#include "platform/topology.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "workloads/heat.hpp"
#include "workloads/synthetic_dag.hpp"

namespace das::sim {
namespace {

/// One pinned row: a cell's rank with its event count and trace hash.
struct Golden {
  const char* cell;
  int rank;
  std::uint64_t events;
  std::uint64_t hash;
};

// Generated with DAS_PRINT_GOLDENS=1 at b8412b1 (see the header comment).
const Golden kGoldens[] = {
    {"paper/matmul/dvfs-wave/RWS", 0, 61285u, 0x2ca3f9e1ea8ba2d1u},
    {"paper/matmul/dvfs-wave/DAM-C", 0, 51245u, 0x671be8ce7981871au},
    {"paper/matmul/dvfs-wave/dHEFT", 0, 53482u, 0xa3872d869da59343u},
    {"paper/copy/dvfs-wave/RWS", 0, 28870u, 0x9f8dc5fdde2db647u},
    {"paper/copy/dvfs-wave/DAM-C", 0, 27294u, 0xb16c5443ca093951u},
    {"paper/copy/dvfs-wave/dHEFT", 0, 27571u, 0x88a503db9d06be2cu},
    {"paper/stencil/dvfs-wave/RWS", 0, 9569u, 0x69cda76d20cbe7cu},
    {"paper/stencil/dvfs-wave/DAM-C", 0, 8042u, 0x47b68dba8644e434u},
    {"paper/stencil/dvfs-wave/dHEFT", 0, 8459u, 0xf1f610ab77a5a40eu},
    {"paper/matmul/interference-burst/RWS", 0, 61830u, 0xb88d0ed625acc111u},
    {"paper/matmul/interference-burst/DAM-C", 0, 51265u, 0xe3dd3676e8b7f86eu},
    {"paper/matmul/interference-burst/dHEFT", 0, 56009u, 0x5c54d93fef9af6a3u},
    {"paper/copy/interference-burst/RWS", 0, 29190u, 0x3ac4320fb936431u},
    {"paper/copy/interference-burst/DAM-C", 0, 25809u, 0xbb024f11c2f9f3fcu},
    {"paper/copy/interference-burst/dHEFT", 0, 27716u, 0xbd9b33cc7d48dcafu},
    {"paper/stencil/interference-burst/RWS", 0, 9544u, 0xf12fcfcde647aff9u},
    {"paper/stencil/interference-burst/DAM-C", 0, 8054u, 0xf814d03786f8e89au},
    {"paper/stencil/interference-burst/dHEFT", 0, 8749u, 0xf570a8b9cd843c7cu},
    {"wide/RWS/cores=64", 0, 10275u, 0x569cc570af16c6d4u},
    {"wide/RWS/cores=80", 0, 12846u, 0x9176ceea9eaec824u},
    {"tied-completions/dHEFT", 0, 8000u, 0x2336e2e7c3f9eeb1u},
    {"tied-completions/RWS", 0, 8501u, 0x4615a9c4c2a885aau},
    {"tied-completions/FA", 0, 8650u, 0xcd7fa08b04dd27adu},
    {"delayed-local/RWS", 0, 11395u, 0x21b01d1093158c3au},
    {"delayed-local/DAM-C", 0, 9645u, 0x152e352c498ae431u},
    {"fail-stop/RWS", 0, 53911u, 0x48ceccc68492cf44u},
    {"freeze/RWS", 0, 55673u, 0x90c0010ed0c5db2eu},
    {"fail-stop/DAM-C", 0, 51242u, 0xb7f4f2b3cf74d414u},
    {"freeze/DAM-C", 0, 51222u, 0x8a0ce56fad40653fu},
    {"halo/RWS/des=1", 0, 9093u, 0x1eb5d637136c1784u},
    {"halo/RWS/des=1", 1, 9357u, 0x12c76dc5a40ced02u},
    {"halo/RWS/des=1", 2, 9371u, 0x6b2744e354d58d1fu},
    {"halo/RWS/des=1", 3, 9086u, 0x2e37354ac3b95f64u},
    {"isolated-ranks/RWS/des=1", 0, 2057u, 0xdea8a4790d92ad3fu},
    {"isolated-ranks/RWS/des=1", 1, 2058u, 0xce65f76ce78f0a44u},
    {"isolated-ranks/RWS/des=1", 2, 2057u, 0x7cfe10dff716bd39u},
    {"isolated-ranks/RWS/des=1", 3, 2057u, 0xb418594ed02e0e5fu},
    {"heat/RWS/des=1", 0, 334u, 0x9b90b44516956307u},
    {"heat/RWS/des=1", 1, 399u, 0x2408edeae25e8d41u},
    {"heat/RWS/des=1", 2, 396u, 0x126edf2cd7b4460cu},
    {"heat/RWS/des=1", 3, 332u, 0xe416af13a64955d9u},
    {"halo/DAM-C/des=1", 0, 9483u, 0xb2035852987a00eau},
    {"halo/DAM-C/des=1", 1, 9746u, 0xb4fb548bc859675au},
    {"halo/DAM-C/des=1", 2, 9771u, 0xf9db18527d9bae4du},
    {"halo/DAM-C/des=1", 3, 9488u, 0xa845ccbd9ef57c7fu},
    {"isolated-ranks/DAM-C/des=1", 0, 2307u, 0xb333cc8088380c8u},
    {"isolated-ranks/DAM-C/des=1", 1, 2325u, 0x778770783da33006u},
    {"isolated-ranks/DAM-C/des=1", 2, 2281u, 0xcc1e9b553f354e43u},
    {"isolated-ranks/DAM-C/des=1", 3, 2359u, 0x3acd46a34a0672cu},
    {"heat/DAM-C/des=1", 0, 580u, 0x35b880e6b456c87du},
    {"heat/DAM-C/des=1", 1, 693u, 0x4e4eee5a80558ac8u},
    {"heat/DAM-C/des=1", 2, 755u, 0xe81f155e16b410cau},
    {"heat/DAM-C/des=1", 3, 627u, 0x1632806f3d1f5b4fu},
    {"halo/RWS/des=4", 0, 9093u, 0x1eb5d637136c1784u},
    {"halo/RWS/des=4", 1, 9357u, 0x12c76dc5a40ced02u},
    {"halo/RWS/des=4", 2, 9371u, 0x6b2744e354d58d1fu},
    {"halo/RWS/des=4", 3, 9086u, 0x2e37354ac3b95f64u},
    {"isolated-ranks/RWS/des=4", 0, 2057u, 0xdea8a4790d92ad3fu},
    {"isolated-ranks/RWS/des=4", 1, 2058u, 0xce65f76ce78f0a44u},
    {"isolated-ranks/RWS/des=4", 2, 2057u, 0x7cfe10dff716bd39u},
    {"isolated-ranks/RWS/des=4", 3, 2057u, 0xb418594ed02e0e5fu},
    {"heat/RWS/des=4", 0, 334u, 0x9b90b44516956307u},
    {"heat/RWS/des=4", 1, 399u, 0x2408edeae25e8d41u},
    {"heat/RWS/des=4", 2, 396u, 0x126edf2cd7b4460cu},
    {"heat/RWS/des=4", 3, 332u, 0xe416af13a64955d9u},
    {"halo/DAM-C/des=4", 0, 9483u, 0xb2035852987a00eau},
    {"halo/DAM-C/des=4", 1, 9746u, 0xb4fb548bc859675au},
    {"halo/DAM-C/des=4", 2, 9771u, 0xf9db18527d9bae4du},
    {"halo/DAM-C/des=4", 3, 9488u, 0xa845ccbd9ef57c7fu},
    {"isolated-ranks/DAM-C/des=4", 0, 2307u, 0xb333cc8088380c8u},
    {"isolated-ranks/DAM-C/des=4", 1, 2325u, 0x778770783da33006u},
    {"isolated-ranks/DAM-C/des=4", 2, 2281u, 0xcc1e9b553f354e43u},
    {"isolated-ranks/DAM-C/des=4", 3, 2359u, 0x3acd46a34a0672cu},
    {"heat/DAM-C/des=4", 0, 580u, 0x35b880e6b456c87du},
    {"heat/DAM-C/des=4", 1, 693u, 0x4e4eee5a80558ac8u},
    {"heat/DAM-C/des=4", 2, 755u, 0xe81f155e16b410cau},
    {"heat/DAM-C/des=4", 3, 627u, 0x1632806f3d1f5b4fu},
    {"session/DAM-C", 0, 76214u, 0xac65ad37bbdf0025u},
    {"session/dHEFT", 0, 76476u, 0xdf66472d3fd9f861u},
};

struct Measured {
  std::string cell;
  int rank;
  std::uint64_t events;
  std::uint64_t hash;
};

class SimEventStreamTest : public ::testing::Test {
 protected:
  SimEventStreamTest() { ids_ = kernels::register_paper_kernels(registry_); }

  static SimOptions options(std::uint64_t seed, int des_threads = 1) {
    SimOptions o;
    o.seed = seed;
    o.des_threads = des_threads;
    o.hash_traces = true;
    return o;
  }

  void record(const std::string& cell, const SimEngine& eng) {
    for (int r = 0; r < eng.num_ranks(); ++r)
      measured_.push_back(
          Measured{cell, r, eng.events_processed(r), eng.trace_hash(r)});
  }

  /// Compares the recorded rows, in order, with the golden rows whose cell
  /// name starts with one of `prefixes` — or prints them instead under
  /// DAS_PRINT_GOLDENS.
  void expect_goldens(std::initializer_list<std::string_view> prefixes) {
    if (std::getenv("DAS_PRINT_GOLDENS") != nullptr) {
      for (const Measured& m : measured_)
        std::printf("    {\"%s\", %d, %lluu, 0x%llxu},\n", m.cell.c_str(),
                    m.rank, static_cast<unsigned long long>(m.events),
                    static_cast<unsigned long long>(m.hash));
      GTEST_SKIP() << "golden rows printed, comparison skipped";
    }
    std::vector<const Golden*> want;
    for (const Golden& g : kGoldens)
      for (const std::string_view prefix : prefixes)
        if (std::string_view(g.cell).starts_with(prefix)) {
          want.push_back(&g);
          break;
        }
    ASSERT_EQ(measured_.size(), want.size())
        << "the cell list changed: regenerate the golden rows";
    for (std::size_t i = 0; i < measured_.size(); ++i) {
      const Measured& m = measured_[i];
      const Golden& g = *want[i];
      ASSERT_EQ(m.cell, g.cell) << "row " << i;
      ASSERT_EQ(m.rank, g.rank) << "row " << i;
      EXPECT_EQ(m.events, g.events) << m.cell << " rank " << m.rank;
      EXPECT_EQ(m.hash, g.hash) << m.cell << " rank " << m.rank
                                << ": the event stream was perturbed";
    }
  }

  /// The halo-coupled layered DAG of the halo-sim benchmark: per rank a
  /// critical chain of `width`-wide layers, and each layer's critical task
  /// also releases the next layer's critical task on the neighbouring
  /// ranks through a delayed cross-rank edge. Without `coupled` the ranks
  /// share no edge, so the window lookahead is infinite and one window
  /// runs the whole job.
  static Dag halo_dag(TaskTypeId type, int ranks, int per_rank, int width,
                      double cross_delay_s, bool coupled = true) {
    Dag dag;
    const int layers = per_rank / width;
    std::vector<std::vector<NodeId>> crit(
        static_cast<std::size_t>(layers),
        std::vector<NodeId>(static_cast<std::size_t>(ranks)));
    for (int l = 0; l < layers; ++l) {
      for (int r = 0; r < ranks; ++r) {
        for (int p = 0; p < width; ++p) {
          const NodeId id =
              dag.add_node(type, p == 0 ? Priority::kHigh : Priority::kLow);
          dag.node(id).rank = r;
          if (p == 0)
            crit[static_cast<std::size_t>(l)][static_cast<std::size_t>(r)] =
                id;
          if (l > 0)
            dag.add_edge(crit[static_cast<std::size_t>(l - 1)]
                             [static_cast<std::size_t>(r)],
                         id);
        }
        if (coupled && l > 0) {
          const NodeId head =
              crit[static_cast<std::size_t>(l)][static_cast<std::size_t>(r)];
          const auto& prev = crit[static_cast<std::size_t>(l - 1)];
          if (r > 0)
            dag.add_edge(prev[static_cast<std::size_t>(r - 1)], head,
                         cross_delay_s);
          if (r + 1 < ranks)
            dag.add_edge(prev[static_cast<std::size_t>(r + 1)], head,
                         cross_delay_s);
        }
      }
    }
    dag.seal();
    return dag;
  }

  /// Layered DAG whose every third critical task releases its layer with
  /// a local delay on one edge in two.
  static Dag delayed_local_dag(const workloads::SyntheticDagSpec& spec,
                               int layers) {
    Dag dag;
    NodeId prev = kInvalidNode;
    for (int l = 0; l < layers; ++l) {
      NodeId crit = kInvalidNode;
      for (int p = 0; p < spec.parallelism; ++p) {
        const NodeId id = dag.add_node(
            spec.type, p == 0 ? Priority::kHigh : Priority::kLow, spec.params);
        if (p == 0) crit = id;
        if (prev != kInvalidNode)
          dag.add_edge(prev, id, (l % 3 == 0 && p % 2 == 1) ? 40e-6 : 0.0);
      }
      prev = crit;
    }
    dag.seal();
    return dag;
  }

  TaskTypeRegistry registry_;
  kernels::PaperKernelIds ids_;
  std::vector<Measured> measured_;
};

TEST_F(SimEventStreamTest, PaperKernelsOnTx2) {
  const Topology tx2 = Topology::tx2();
  const workloads::SyntheticDagSpec kernels_specs[] = {
      workloads::paper_matmul_spec(ids_.matmul, 4, 0.4),
      workloads::paper_copy_spec(ids_.copy, 4, 0.6),
      workloads::paper_stencil_spec(ids_.stencil, 4, 0.1)};
  const char* const kernel_names[] = {"matmul", "copy", "stencil"};
  const Policy policies[] = {Policy::kRws, Policy::kDamC, Policy::kDheft};
  for (const char* sc_name : {"dvfs-wave", "interference-burst"}) {
    const SpeedScenario sc =
        scenario::build(*scenario::find_catalog(sc_name), tx2);
    for (std::size_t k = 0; k < std::size(kernels_specs); ++k) {
      const Dag dag = workloads::make_synthetic_dag(kernels_specs[k]);
      for (const Policy p : policies) {
        SimEngine eng(tx2, p, registry_, options(7), &sc);
        eng.run(dag);
        record(std::string("paper/") + kernel_names[k] + "/" + sc_name + "/" +
                   policy_name(p),
               eng);
      }
    }
  }

  expect_goldens({"paper/"});
}

// Shards of exactly 64 cores and of more: try_steal's victim count and
// pick walk one bitmap word or several, and both must pick the victims the
// parent picked.
TEST_F(SimEventStreamTest, WideShards) {
  const TaskTypeId empty =
      registry_.register_type("empty", kernels::fixed_cost(1e-9));
  for (const int cores : {64, 80}) {
    const Topology topo = Topology::symmetric(cores / 8, 8);
    workloads::SyntheticDagSpec spec;
    spec.type = empty;
    spec.parallelism = cores;
    spec.total_tasks = 40 * cores;
    const Dag dag = workloads::make_synthetic_dag(spec);
    SimEngine eng(topo, Policy::kRws, registry_, options(41));
    eng.run(dag);
    record("wide/RWS/cores=" + std::to_string(cores), eng);
  }

  expect_goldens({"wide/"});
}

// Noiseless fixed-cost tasks on a symmetric topology: dHEFT's direct wakes
// start a layer's participations together, so they complete at one instant.
TEST_F(SimEventStreamTest, TiedCompletions) {
  const Topology sym = Topology::symmetric(1, 4);
  const TaskTypeId fixed =
      registry_.register_type("fixed", kernels::fixed_cost(1e-3));
  workloads::SyntheticDagSpec spec;
  spec.type = fixed;
  spec.parallelism = 4;
  spec.total_tasks = 2000;
  const Dag dag = workloads::make_synthetic_dag(spec);
  for (const Policy p : {Policy::kDheft, Policy::kRws, Policy::kFa}) {
    SimEngine eng(sym, p, registry_, options(11));
    eng.run(dag);
    record(std::string("tied-completions/") + policy_name(p), eng);
  }

  expect_goldens({"tied-completions/"});
}

TEST_F(SimEventStreamTest, DelayedLocalEdges) {
  const Topology tx2 = Topology::tx2();
  const Dag dag = delayed_local_dag(
      workloads::paper_stencil_spec(ids_.stencil, 4, 0.1), 600);
  for (const Policy p : {Policy::kRws, Policy::kDamC}) {
    SimEngine eng(tx2, p, registry_, options(13));
    eng.run(dag);
    record(std::string("delayed-local/") + policy_name(p), eng);
  }

  expect_goldens({"delayed-local/"});
}

// The fail-stop catalog scenario, and a freeze of two cores.
TEST_F(SimEventStreamTest, Faults) {
  const Topology tx2 = Topology::tx2();
  const Dag dag = workloads::make_synthetic_dag(
      workloads::paper_matmul_spec(ids_.matmul, 6, 0.4));
  const scenario::ScenarioSpec spec = *scenario::find_catalog("fail-stop");
  const SpeedScenario sc = scenario::build(spec, tx2);
  const FaultPlan fail = scenario::resolve_faults(spec, tx2);
  FaultPlan freeze;
  freeze.events.push_back(
      CoreFault{CoreFault::Kind::kFreeze, 0, 0.5, 0.9});
  freeze.events.push_back(
      CoreFault{CoreFault::Kind::kFreeze, 3, 0.7, 1.4});
  for (const Policy p : {Policy::kRws, Policy::kDamC}) {
    {
      SimEngine eng(tx2, p, registry_, options(17), &sc, &fail);
      eng.run(dag);
      EXPECT_GT(eng.cores_failed(), 0);
      record(std::string("fail-stop/") + policy_name(p), eng);
    }
    {
      SimEngine eng(tx2, p, registry_, options(19), nullptr, &freeze);
      eng.run(dag);
      record(std::string("freeze/") + policy_name(p), eng);
    }
  }

  expect_goldens({"fail-stop/", "freeze/"});
}

// Multi-rank: the halo DAG, ranks without cross-rank edges and the heat DAG,
// in serial and in threaded windows.
TEST_F(SimEventStreamTest, MultiRankWindows) {
  const Topology node = Topology::symmetric(1, 8);
  const TaskTypeId empty =
      registry_.register_type("empty", kernels::fixed_cost(1e-9));
  const Dag halo = halo_dag(empty, 4, 1024, 8, 30e-6);
  const Dag isolated = halo_dag(empty, 4, 512, 8, 30e-6, false);
  const std::vector<RankSpec> halo_ranks(4, RankSpec{&node, nullptr});
  workloads::HeatConfig cfg;
  cfg.rows = 128;
  cfg.cols = 64;
  cfg.ranks = 4;
  cfg.iterations = 10;
  cfg.tasks_per_rank = 4;
  const Dag heat =
      workloads::make_heat_sim_dag(cfg, ids_.heat_compute, ids_.comm);
  const Topology haswell = Topology::haswell20();
  SpeedScenario perturbed(haswell);
  perturbed.add_interference(
      InterferenceEvent{.cores = {0, 1, 2, 3, 4}, .cpu_share = 0.5});
  std::vector<RankSpec> heat_ranks(4, RankSpec{&haswell, nullptr});
  heat_ranks[0].scenario = &perturbed;
  for (const int threads : {1, 4}) {
    for (const Policy p : {Policy::kRws, Policy::kDamC}) {
      {
        SimEngine eng(halo_ranks, p, registry_, options(23, threads));
        eng.run(halo);
        eng.run(halo);  // a second job over the same shards
        record(std::string("halo/") + policy_name(p) + "/des=" +
                   std::to_string(threads),
               eng);
      }
      {
        SimEngine eng(halo_ranks, p, registry_, options(37, threads));
        eng.run(isolated);
        record(std::string("isolated-ranks/") + policy_name(p) + "/des=" +
                   std::to_string(threads),
               eng);
      }
      {
        SimEngine eng(heat_ranks, p, registry_, options(29, threads));
        eng.run(heat);
        record(std::string("heat/") + policy_name(p) + "/des=" +
                   std::to_string(threads),
               eng);
      }
    }
  }

  expect_goldens({"halo/", "isolated-ranks/", "heat/"});
}

// A session stream: pumps with a horizon stop right after the event that
// crosses it (Executor::wait_for pumps this way), and a job is submitted at
// the instant each pump stopped. Under DAM-C and dHEFT a release wakes its
// task's core directly, at the release instant, so the order between those
// wakes and the new job's roots shows in the trace.
TEST_F(SimEventStreamTest, SessionHorizonStops) {
  const Topology tx2 = Topology::tx2();
  const Dag big = workloads::make_synthetic_dag(
      workloads::paper_copy_spec(ids_.copy, 2, 0.1));
  const Dag small = workloads::make_synthetic_dag(
      workloads::paper_stencil_spec(ids_.stencil, 3, 0.003));
  for (const Policy p : {Policy::kDamC, Policy::kDheft}) {
    SimEngine eng(tx2, p, registry_, options(31));
    int done = 0;
    eng.set_service_hooks([&done](JobId, double) { ++done; },
                          [](std::uint64_t, double) {});
    std::vector<JobId> ids{eng.submit(big)};
    for (int i = 0; i < 300; ++i) {
      if (!eng.pump(eng.now() + 1.7e-4)) break;
      ids.push_back(eng.submit(small));
    }
    while (eng.pump()) {
    }
    for (const JobId id : ids) EXPECT_GT(eng.wait(id), 0.0);
    EXPECT_EQ(done, static_cast<int>(ids.size()));
    record(std::string("session/") + policy_name(p), eng);
  }

  expect_goldens({"session/"});
}

}  // namespace
}  // namespace das::sim
