// rt-fine: the real-thread runtime with min(4, nproc) workers on an
// emulated 2-fast + 2-slow topology, running a layered DAG of empty work
// closures (parallelism 4) under RWS and DAM-C. With empty tasks nearly every
// nanosecond is dispatch, steal, park and wake. Each pass runs a block of jobs
// under each policy; only one executor (one worker pool) exists at a time.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "kernels/cost_models.hpp"
#include "layers.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kTasks = 2048;
constexpr int kParallelism = 4;
constexpr int kJobsPerBlock = 50;
constexpr int kSimSeeds = 128;
const das::Policy kPolicies[] = {das::Policy::kRws, das::Policy::kDamC};

std::vector<int> widths_upto(int cores) {
  std::vector<int> w;
  for (int x = 1; x <= cores; x *= 2) w.push_back(x);
  return w;
}

/// `cores` workers: the first half (rounded up) fast, the rest at half speed.
das::Topology make_topology(int cores) {
  const int fast = (cores + 1) / 2;
  const int slow = cores - fast;
  std::vector<das::Cluster> clusters;
  clusters.push_back(das::Cluster{.name = "fast", .first_core = 0,
                                  .num_cores = fast, .base_speed = 1.0,
                                  .widths = widths_upto(fast)});
  if (slow > 0)
    clusters.push_back(das::Cluster{.name = "slow", .first_core = fast,
                                    .num_cores = slow, .base_speed = 0.5,
                                    .widths = widths_upto(slow)});
  return das::Topology(std::move(clusters));
}

struct Setup {
  das::TaskTypeRegistry registry;
  das::Topology topo;
  das::Dag dag;
  explicit Setup(int cores) : topo(make_topology(cores)) {}
};

std::unique_ptr<das::Executor> make_exec(Raw& raw, const Setup& s,
                                         das::Policy policy, std::uint64_t seed) {
  das::ExecutorConfig cfg;
  cfg.seed = seed;
  const std::int64_t t0 = now_ns();
  Span span("exec.make_executor");
  auto exec =
      das::make_executor(das::Backend::kRt, s.topo, policy, s.registry, cfg);
  raw.sample("exec.make_executor_s", "s", seconds_since(t0));
  return exec;
}

}  // namespace

void run_rt_fine(const Options& opt, Raw& raw) {
  das::Xoshiro256 rng(opt.seed);
  const std::uint64_t seed = rng();
  const int first_policy = static_cast<int>(rng.below(2));
  const int cores = std::min(4, opt.nproc);

  std::unique_ptr<Setup> s;
  auto setup = [&] {
    Span span("bench.setup");
    const std::int64_t t0 = now_ns();
    auto fresh = std::make_unique<Setup>(cores);
    const das::TaskTypeId empty =
        fresh->registry.register_type("empty", das::kernels::fixed_cost(1e-9));
    fresh->dag = build_layered_dag(raw, empty, 1, kTasks, kParallelism, 0.0,
                                   {}, [](const das::ExecContext&) {});
    const auto exec = make_exec(raw, *fresh, kPolicies[first_policy], seed);
    raw.sample("setup_s", "s", seconds_since(t0));
    s = std::move(fresh);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) setup();

  // One block = kJobsPerBlock jobs on a fresh executor of one policy.
  std::int64_t stats_mismatches = 0;
  auto block = [&](das::Policy policy, std::int64_t& tasks, double& wall) {
    const auto exec = make_exec(raw, *s, policy, seed);
    const std::int64_t t0 = now_ns();
    std::int64_t block_tasks = 0;
    for (int j = 0; j < kJobsPerBlock; ++j) {
      das::RunResult r;
      {
        Span run_span("exec.run");
        r = exec->run(s->dag);
      }
      const bool ok = r.ok() && r.tasks == s->dag.num_nodes();
      raw.ops(1, ok ? 0 : 1);
      block_tasks += r.tasks;
    }
    const double block_wall = seconds_since(t0);
    raw.sample("exec.run_s", "s", block_wall);
    tasks += block_tasks;
    wall += block_wall;

    // The rt layer through ExecutionStats busy time.
    const das::StatsSnapshot st = exec->stats().snapshot();
    const double capacity = block_wall * static_cast<double>(st.busy_s.size());
    const double mean_busy =
        st.total_busy_s / static_cast<double>(st.busy_s.size());
    raw.sample("rt.busy_frac", "ratio", st.total_busy_s / capacity);
    raw.sample("rt.overhead_ns_per_task", "ns",
               (capacity - st.total_busy_s) * 1e9 /
                   static_cast<double>(block_tasks));
    raw.sample("rt.busy_imbalance", "ratio",
               *std::max_element(st.busy_s.begin(), st.busy_s.end()) / mean_busy);
    if (st.tasks_total != block_tasks) ++stats_mismatches;
  };
  // One pass = one block under each policy, in an order drawn from the
  // seed, so every rate sample covers both policies.
  auto pass = [&] {
    Span span("bench.pass");
    const std::string prefix = phase_prefix();
    const int first = static_cast<int>(rng.below(2));
    std::int64_t tasks = 0;
    double wall = 0.0;
    for (int b = 0; b < 2; ++b) block(kPolicies[(first + b) % 2], tasks, wall);
    raw.sample(prefix + "tasks_per_s", "1/s", static_cast<double>(tasks) / wall);
  };
  measured_phase(opt, kMinRateSamples, [&] {
    pass();
    setup();
  });
  report_rate_p90(raw);
  raw.check("stats_count_every_task", stats_mismatches == 0,
            std::to_string(stats_mismatches) + " blocks miscounted");

  // The DES model of the same DAG on the same topology, both policies, over
  // kSimSeeds engine seeds (one short run alone varies too much by seed).
  std::vector<SimCase> cases;
  for (const das::Policy p : kPolicies)
    cases.push_back(SimCase{{das::sim::RankSpec{&s->topo, nullptr}}, p, &s->dag});
  SimTotals serial, threaded;
  for (int i = 0; i < kSimSeeds; ++i) {
    das::sim::SimOptions o;
    o.seed = seed + static_cast<std::uint64_t>(i);
    serial += run_sim_cases(cases, s->registry, o, 1);
    if (opt.trace) threaded += run_sim_cases(cases, s->registry, o, cores);
  }
  raw.value("virtual_makespan_s", "s", serial.vmakespan_s);
  if (opt.trace) {
    record_sim_layer(raw, threaded, serial);
    record_codec_layer(raw, {&s->dag}, 20);
  }
}

}  // namespace perfbench
