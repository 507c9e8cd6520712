// Ablation bench for the scheduler's design choices listed below. Each
// ablation runs the Fig. 4 MatMul P=2 configuration (co-runner on core 0)
// unless stated otherwise, and reports throughput deltas. Runs through the
// das::Executor facade (--backend=sim|rt).
//
//   A: steal-exemption of high-priority tasks ON (paper) vs OFF
//   B: cold PTT (zero-init exploration, paper) vs warm PTT (pre-trained by
//      an identical clean run — an upper bound for smarter initialisation)
//   C: re-mold at dequeue/steal time (paper, Fig. 3 steps 4-5) vs width
//      frozen at wake-up
//   D: round-robin (paper-faithful deterministic) vs random tie-breaking in
//      the min-searches
//   E: update ratio 1/5 (paper) vs 5/5 (last-sample-only) on the noisy
//      tile-32 workload — the Fig. 8 effect, isolated

#include <iostream>

#include "../bench/support.hpp"
#include "core/criticality.hpp"

using namespace das;
using namespace das::bench;

namespace {

double run(Bench& b, const std::string& label, Policy policy,
           const workloads::SyntheticDagSpec& spec,
           const SpeedScenario* scenario, ExecutorConfig opts,
           bool warm_ptt = false) {
  auto exec = b.make(policy, scenario, opts);
  if (warm_ptt) {
    // Pre-train on a clean run of the same DAG shape (no interference).
    workloads::SyntheticDagSpec prefix = spec;
    prefix.total_tasks = spec.parallelism * 50;
    Dag pre = workloads::make_synthetic_dag(prefix);
    exec->run(pre);
    exec->stats().reset();
  }
  Dag dag = workloads::make_synthetic_dag(spec);
  const double t0 = exec->now();
  const RunResult r = exec->run(dag);
  b.report(label, r);
  return dag.num_nodes() / (exec->now() - t0);
}

}  // namespace

int main(int argc, char** argv) {
  Bench b(argc, argv, "ablation_scheduler");
  print_backend(b);
  const SpeedScenario corunner = b.make_scenario(
      b.topo, [](SpeedScenario& s) { s.add_cpu_corunner(0); });
  const auto spec = workloads::paper_matmul_spec(b.ids.matmul, 2, 0.5 * b.scale);

  print_title("Ablation A: steal-exemption of high-priority tasks (DAM-C)");
  {
    TextTable t({"variant", "tasks/s"});
    ExecutorConfig on = b.make_config();
    ExecutorConfig off = b.make_config();
    off.policy_options.steal_exempt_high_priority = false;
    t.row().add("steal-exempt (paper)").add(run(b, "A steal-exempt", Policy::kDamC, spec, &corunner, on), 0);
    t.row().add("stealable criticals").add(run(b, "A stealable criticals", Policy::kDamC, spec, &corunner, off), 0);
    t.print(std::cout);
  }

  print_title("Ablation B: cold vs warm PTT (DAM-C)");
  {
    TextTable t({"variant", "tasks/s"});
    const ExecutorConfig opts = b.make_config();
    t.row().add("cold (zero-init, paper)").add(run(b, "B cold PTT", Policy::kDamC, spec, &corunner, opts), 0);
    t.row().add("warm (50-layer pre-train)").add(run(b, "B warm PTT", Policy::kDamC, spec, &corunner, opts, true), 0);
    t.print(std::cout);
  }

  print_title("Ablation C: re-mold on dequeue/steal (RWSM-C and DAM-C)");
  {
    TextTable t({"policy", "re-mold (paper)", "width frozen at wake-up"});
    for (Policy p : {Policy::kRwsmC, Policy::kDamC}) {
      ExecutorConfig on = b.make_config();
      ExecutorConfig off = b.make_config();
      off.policy_options.remold_on_dequeue = false;
      t.row()
          .add(policy_name(p))
          .add(run(b, "C re-mold", p, spec, &corunner, on), 0)
          .add(run(b, "C frozen width", p, spec, &corunner, off), 0);
    }
    t.print(std::cout);
  }

  print_title("Ablation D: tie-breaking in the min-searches (DAM-P)");
  {
    TextTable t({"variant", "tasks/s"});
    ExecutorConfig rr = b.make_config();
    ExecutorConfig rnd = b.make_config();
    rnd.policy_options.random_tie_break = true;
    t.row().add("round-robin (deterministic)").add(run(b, "D round-robin", Policy::kDamP, spec, &corunner, rr), 0);
    t.row().add("random").add(run(b, "D random tie-break", Policy::kDamP, spec, &corunner, rnd), 0);
    t.print(std::cout);
  }

  print_title("Ablation E: PTT smoothing on noisy short tasks (tile 32, DAM-C)");
  {
    // P=2: the release-bound regime where decision quality shows (cf. the
    // Fig. 8 bench).
    const auto noisy = workloads::paper_matmul_spec(b.ids.matmul, 2, 0.5 * b.scale, 32);
    TextTable t({"update ratio", "tasks/s"});
    for (int num : {1, 5}) {
      ExecutorConfig opts = b.make_config();
      opts.ptt_ratio = UpdateRatio{num, 5};
      t.row()
          .add(num == 1 ? "1/5 (paper)" : "5/5 (last sample only)")
          .add(run(b, num == 1 ? "E ratio 1/5" : "E ratio 5/5", Policy::kDamC,
                   noisy, &corunner, opts),
               0);
    }
    t.print(std::cout);
  }

  print_title("Ablation F: user-marked vs inferred vs absent criticality "
              "(DAM-C)");
  {
    // The paper relies on user marks; core/criticality.hpp infers them from
    // the DAG structure (CATS-style). "absent" demotes everything to low
    // priority — the criticality-aware machinery goes unused.
    TextTable t({"priority source", "tasks/s"});
    auto run_variant = [&](const char* label, auto&& mutate) {
      Dag dag = workloads::make_synthetic_dag(spec);
      mutate(dag);
      const RunResult r = b.make(Policy::kDamC, &corunner, b.make_config())->run(dag);
      b.report(std::string("F ") + label, r);
      t.row().add(label).add(r.tasks_per_s, 0);
    };
    run_variant("user marks (generator)", [](Dag&) {});
    run_variant("inferred (critical path)", [](Dag& dag) {
      for (NodeId i = 0; i < dag.num_nodes(); ++i)
        dag.node(i).priority = Priority::kLow;  // erase ground truth
      infer_criticality(dag);
    });
    run_variant("absent (all low)", [](Dag& dag) {
      for (NodeId i = 0; i < dag.num_nodes(); ++i)
        dag.node(i).priority = Priority::kLow;
    });
    t.print(std::cout);
  }
  return b.finish();
}
