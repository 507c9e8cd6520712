// Cross-engine validation: the real-thread runtime, with
// throttle-emulated TX2 asymmetry and the core-0 co-runner, must rank the
// schedulers the same way the deterministic DES does on the Fig. 4 MatMul
// P=2 configuration. Absolute numbers differ (the runtime executes real
// busy-work and pays real synchronisation); the ordering and rough factors
// are what validate the DES as the figure-generation substrate.
//
// This bench is the facade's showcase: the SAME driver loop builds both
// engines through das::make_executor and only the Backend enum differs —
// so --backend= is accepted and ignored (both always run). --scale defaults
// to 0.05 here regardless of backend: every row executes real busy-work.

#include <iostream>

#include "../bench/support.hpp"
#include "platform/affinity.hpp"

using namespace das;
using namespace das::bench;

int main(int argc, char** argv) {
  Bench b(argc, argv, "validation_realruntime");
  b.backend_label = "rt+sim";  // this bench always runs BOTH engines
  if (!b.flags.has("scale")) b.scale = 0.05;  // wall-time budget per real run
  const SpeedScenario scenario = b.make_scenario(
      b.topo, [](SpeedScenario& s) { s.add_cpu_corunner(0); });

  workloads::SyntheticDagSpec spec =
      workloads::paper_matmul_spec(b.ids.matmul, 2, b.scale);

  print_title("Validation: real-thread runtime (emulated TX2) vs DES — "
              "MatMul P=2, co-runner on core 0");
  std::cout << "scale " << fmt_double(b.scale, 3) << ", seed " << b.seed
            << " (--backend is ignored: both engines always run)\n";
  if (allowed_cpu_count() < b.topo.num_cores() + 1) {
    std::cout << "note: only " << allowed_cpu_count()
              << " CPUs available for 6 workers — expect wall-clock noise\n";
  }

  TextTable t({"scheduler", "real tasks/s", "DES tasks/s", "real vs RWS",
               "DES vs RWS"});
  double real_rws = 0.0, sim_rws = 0.0;
  for (Policy p : b.policies({Policy::kRws, Policy::kFa, Policy::kDa,
                              Policy::kDamC})) {
    double tp[2] = {0.0, 0.0};
    for (Backend backend : all_backends()) {
      const Dag dag = workloads::make_synthetic_dag(spec);
      ExecutorConfig cfg = b.make_config();
      cfg.scenario = &scenario;
      auto exec = make_executor(backend, b.topo, p, b.registry, cfg);
      const RunResult r = exec->run(dag);
      b.report(std::string("MatMul P=2 on ") + backend_name(backend), r);
      tp[static_cast<int>(backend)] = r.tasks_per_s;
    }
    const double rt_tp = tp[static_cast<int>(Backend::kRt)];
    const double sim_tp = tp[static_cast<int>(Backend::kSim)];
    if (p == Policy::kRws) {
      real_rws = rt_tp;
      sim_rws = sim_tp;
    }
    // "-" when RWS is filtered out: a made-up baseline would read as parity.
    t.row()
        .add(policy_name(p))
        .add(rt_tp, 0)
        .add(sim_tp, 0)
        .add(real_rws > 0 ? fmt_double(rt_tp / real_rws, 2) + "x" : "-")
        .add(sim_rws > 0 ? fmt_double(sim_tp / sim_rws, 2) + "x" : "-");
  }
  t.print(std::cout);
  return b.finish();
}
