// paper-sim: the paper's experiment on the DES. The three synthetic DAGs
// (MatMul, Copy, Stencil; full scale; parallelism 4) on the TX2 model, over
// the {RWS, DAM-C} x {dvfs-wave, interference-burst} grid, each cell on a
// fresh executor through the exec facade, on one thread. A job is one pass
// over the 12 cells; its virtual makespans must repeat bit for bit.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.hpp"
#include "kernels/registry.hpp"
#include "layers.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"
#include "workloads/synthetic_dag.hpp"

namespace perfbench {
namespace {

constexpr int kParallelism = 4;
const char* const kKernels[] = {"matmul", "copy", "stencil"};
const char* const kScenarios[] = {"dvfs-wave", "interference-burst"};
const das::Policy kPolicies[] = {das::Policy::kRws, das::Policy::kDamC};

struct Cell {
  int kernel = 0;
  int policy = 0;
  int scenario = 0;
  std::uint64_t seed = 0;
  std::string label;
};

/// Everything built before the first submit.
struct Setup {
  das::TaskTypeRegistry registry;
  das::Topology topo = das::Topology::tx2();
  std::vector<das::SpeedScenario> scenarios;
  std::vector<das::Dag> dags;  // indexed like kKernels
};

std::unique_ptr<Setup> set_up(Raw& raw) {
  auto s = std::make_unique<Setup>();
  const das::kernels::PaperKernelIds ids =
      das::kernels::register_paper_kernels(s->registry);
  for (const char* name : kScenarios)
    s->scenarios.push_back(
        das::scenario::build(das::scenario::load(name), s->topo));
  const das::workloads::SyntheticDagSpec specs[] = {
      das::workloads::paper_matmul_spec(ids.matmul, kParallelism),
      das::workloads::paper_copy_spec(ids.copy, kParallelism),
      das::workloads::paper_stencil_spec(ids.stencil, kParallelism)};
  for (const auto& spec : specs)
    s->dags.push_back(build_layered_dag(raw, spec.type, 1, spec.total_tasks,
                                        spec.parallelism, 0.0, spec.params));
  return s;
}

std::unique_ptr<das::Executor> make_cell_executor(Raw& raw, const Setup& s,
                                                  const Cell& c) {
  das::ExecutorConfig cfg;
  cfg.seed = c.seed;
  cfg.scenario = &s.scenarios[static_cast<std::size_t>(c.scenario)];
  const std::int64_t t0 = now_ns();
  Span span("exec.make_executor");
  auto exec = das::make_executor(das::Backend::kSim, s.topo,
                                 kPolicies[c.policy], s.registry, cfg);
  raw.sample("exec.make_executor_s", "s", seconds_since(t0));
  return exec;
}

}  // namespace

void run_paper_sim(const Options& opt, Raw& raw) {
  // The seed draws each cell's engine seed and the order cells run in.
  das::Xoshiro256 rng(opt.seed);
  std::vector<Cell> cells;
  for (int k = 0; k < 3; ++k)
    for (int p = 0; p < 2; ++p)
      for (int sc = 0; sc < 2; ++sc)
        cells.push_back(Cell{k, p, sc, 0,
                             std::string(kKernels[k]) + "." +
                                 das::policy_name(kPolicies[p]) + "." +
                                 kScenarios[sc]});
  for (Cell& c : cells) c.seed = rng();
  for (std::size_t i = cells.size() - 1; i > 0; --i)
    std::swap(cells[i], cells[rng.below(i + 1)]);

  std::unique_ptr<Setup> s;
  auto setup = [&] {
    Span span("bench.setup");
    const std::int64_t t0 = now_ns();
    auto fresh = set_up(raw);
    make_cell_executor(raw, *fresh, cells.front());
    raw.sample("setup_s", "s", seconds_since(t0));
    s = std::move(fresh);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) setup();

  // One pass = one job: every cell on a fresh executor.
  std::vector<double> first_vmakespan;  // per cell, from the first pass
  std::int64_t repeat_mismatches = 0;
  auto pass = [&] {
    Span span("bench.pass");
    const std::string prefix = phase_prefix();
    const std::int64_t t0 = now_ns();
    double run_s = 0.0;
    std::int64_t tasks = 0;
    std::vector<double> vm;
    for (const Cell& c : cells) {
      const das::Dag& dag = s->dags[static_cast<std::size_t>(c.kernel)];
      auto exec = make_cell_executor(raw, *s, c);
      const std::int64_t r0 = now_ns();
      das::RunResult r;
      {
        Span run_span("exec.run");
        r = exec->run(dag);
      }
      run_s += seconds_since(r0);
      const bool ok = r.ok() && r.tasks == dag.num_nodes();
      raw.ops(1, ok ? 0 : 1);
      tasks += r.tasks;
      vm.push_back(r.makespan_s);
    }
    const double wall = seconds_since(t0);
    raw.sample(prefix + "tasks_per_s", "1/s", static_cast<double>(tasks) / wall);
    raw.sample("exec.run_s", "s", run_s);
    if (first_vmakespan.empty()) first_vmakespan = vm;
    else if (vm != first_vmakespan) ++repeat_mismatches;
  };
  measured_phase(opt, kMinRateSamples, [&] {
    pass();
    setup();
  });
  report_rate_p90(raw);

  double vsum = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    vsum += first_vmakespan[i];
    raw.value("sim.vmakespan." + cells[i].label, "s", first_vmakespan[i]);
  }
  raw.value("virtual_makespan_s", "s", vsum);
  raw.check("vmakespan_repeats", repeat_mismatches == 0,
            std::to_string(repeat_mismatches) + " passes differed");

  // The same cells straight on sim::SimEngine must reproduce the facade.
  std::vector<SimCase> cases;
  for (const Cell& c : cells)
    cases.push_back(SimCase{
        {das::sim::RankSpec{&s->topo,
                            &s->scenarios[static_cast<std::size_t>(c.scenario)]}},
        kPolicies[c.policy],
        &s->dags[static_cast<std::size_t>(c.kernel)]});
  // Engine seeds differ per cell, so run the cases one by one.
  SimTotals serial, threaded;
  bool engine_matches = true;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    das::sim::SimOptions o;
    o.seed = cells[i].seed;
    const SimTotals t = run_sim_cases({cases[i]}, s->registry, o, 1);
    engine_matches = engine_matches && t.vmakespan_s == first_vmakespan[i];
    serial += t;
    if (opt.trace)
      threaded += run_sim_cases({cases[i]}, s->registry, o,
                                std::min(4, opt.nproc));
  }
  raw.check("facade_matches_engine", engine_matches);
  if (opt.trace) {
    record_sim_layer(raw, threaded, serial);
    std::vector<const das::Dag*> dags;
    for (const das::Dag& d : s->dags) dags.push_back(&d);
    record_codec_layer(raw, dags, 5);
  }
}

}  // namespace perfbench
