// halo-sim: the halo-coupled multi-rank layered DAG of
// `sim_throughput --ranks=4` (4 ranks x 16 symmetric cores, empty kernels,
// RWS, clean machine) on the DES with des_threads = min(4, nproc). Each pass
// runs the DAG once on a fresh executor through the exec facade; its virtual
// makespan must repeat bit for bit and equal a serial engine's.

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

constexpr int kRanks = 4;
constexpr int kTasks = 32768;
constexpr int kParallelism = 16;      // = cores per rank
constexpr double kCrossDelayS = 30e-6;

struct Setup {
  das::TaskTypeRegistry registry;
  das::Topology topo = das::Topology::symmetric(2, 8);
  das::SpeedScenario clean{topo};
  das::Dag dag;
  std::vector<das::sim::RankSpec> ranks;
};

std::unique_ptr<Setup> set_up(Raw& raw) {
  auto s = std::make_unique<Setup>();
  const das::TaskTypeId empty =
      s->registry.register_type("empty", das::kernels::fixed_cost(1e-9));
  s->dag = build_layered_dag(raw, empty, kRanks, kTasks, kParallelism,
                             kCrossDelayS);
  s->ranks.assign(kRanks, das::sim::RankSpec{&s->topo, &s->clean});
  return s;
}

std::unique_ptr<das::Executor> make_exec(Raw& raw, const Setup& s,
                                         std::uint64_t seed, int threads) {
  das::ExecutorConfig cfg;
  cfg.seed = seed;
  cfg.sim.des_threads = threads;
  const std::int64_t t0 = now_ns();
  Span span("exec.make_executor");
  auto exec = das::make_executor(das::Backend::kSim, s.ranks,
                                 das::Policy::kRws, s.registry, cfg);
  raw.sample("exec.make_executor_s", "s", seconds_since(t0));
  return exec;
}

}  // namespace

void run_halo_sim(const Options& opt, Raw& raw) {
  const std::uint64_t seed = das::Xoshiro256(opt.seed)();
  const int threads = std::min(4, opt.nproc);

  std::unique_ptr<Setup> s;
  auto setup = [&] {
    Span span("bench.setup");
    const std::int64_t t0 = now_ns();
    auto fresh = set_up(raw);
    make_exec(raw, *fresh, seed, threads);
    raw.sample("setup_s", "s", seconds_since(t0));
    s = std::move(fresh);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) setup();

  double first_vmakespan = -1.0;
  std::int64_t repeat_mismatches = 0;
  auto pass = [&] {
    Span span("bench.pass");
    const std::string prefix = phase_prefix();
    const std::int64_t t0 = now_ns();
    auto exec = make_exec(raw, *s, seed, threads);
    const std::int64_t r0 = now_ns();
    das::RunResult r;
    {
      Span run_span("exec.run");
      r = exec->run(s->dag);
    }
    const double run_s = seconds_since(r0);
    const double wall = seconds_since(t0);
    const bool ok = r.ok() && r.tasks == s->dag.num_nodes();
    raw.ops(1, ok ? 0 : 1);
    raw.sample(prefix + "tasks_per_s", "1/s", static_cast<double>(r.tasks) / wall);
    raw.sample("exec.run_s", "s", run_s);
    if (first_vmakespan < 0.0) first_vmakespan = r.makespan_s;
    else if (r.makespan_s != first_vmakespan) ++repeat_mismatches;
  };
  measured_phase(opt, kMinRateSamples, [&] {
    pass();
    setup();
  });
  report_rate_p90(raw);
  raw.value("virtual_makespan_s", "s", first_vmakespan);
  raw.check("vmakespan_repeats", repeat_mismatches == 0,
            std::to_string(repeat_mismatches) + " passes differed");

  // Serial and threaded DES straight on sim::SimEngine: same virtual
  // makespan and event count, and both equal the facade's.
  const std::vector<SimCase> cases{SimCase{s->ranks, das::Policy::kRws, &s->dag}};
  das::sim::SimOptions o;
  o.seed = seed;
  const SimTotals serial = run_sim_cases(cases, s->registry, o, 1);
  const SimTotals threaded = run_sim_cases(cases, s->registry, o, threads);
  raw.check("threaded_equals_serial",
            threaded.vmakespan_s == serial.vmakespan_s &&
                threaded.events == serial.events,
            "events " + std::to_string(threaded.events) + " vs " +
                std::to_string(serial.events));
  raw.check("facade_matches_engine", serial.vmakespan_s == first_vmakespan);
  if (opt.trace) {
    record_sim_layer(raw, threaded, serial);
    record_codec_layer(raw, {&s->dag}, 5);
  }
}

}  // namespace perfbench
