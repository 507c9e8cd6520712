// Fault-recovery benchmark and determinism sentinel.
//
// Quantifies the fail-stop tolerance layer end to end on the sim backend:
// per (policy, fail-fraction) cell a fixed layered DAG runs once clean to
// size the fault onset, then again with a declarative fail-stop spec
// (scenario::FaultSpec) killing that fraction of the cores at half the
// clean makespan. The cell reports the degraded virtual makespan, the
// degradation ratio vs clean, how many task participations were reclaimed
// and re-executed, and the recovery tail (time spent after the kill). A
// final "straggler-tail" cell runs the catalog scenario of that name —
// permanent slowdown instead of death — so the two failure modes sit in
// one table.
//
// Because the DES is bitwise deterministic from (seed, spec), the baseline
// gate (bench/support.hpp Gate) is EXACT: a cell's virtual makespan and
// re-execution count must equal those in --baseline=PATH. Exit 0 pass, 1
// ANY drift, 2 the baseline is unreadable, a cell lacks either number, or
// no cell matched. This is a behaviour golden, not a perf gate — wall time
// never enters the comparison, so it holds on any machine class.
//
// Flags beyond the common set:
//   --fractions=F[,F...]  fail fractions to sweep   (default 0,0.125,0.25,0.375)
//   --tasks=N             DAG size per job          (default 240)
//   --parallelism=P       DAG width                 (default 4)
//   --baseline=PATH       gate against baseline     (exit 1 on drift)
//   --update-baseline     merge-rewrite PATH from this run

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "../bench/support.hpp"
#include "exec/executor.hpp"
#include "scenario/scenario.hpp"
#include "workloads/synthetic_dag.hpp"

using namespace das;
using namespace das::bench;

int main(int argc, char** argv) {
  Bench b(argc, argv, "fault_recovery",
          {.without = {"backend", "scenario", "scale"},
           .gate_note =
               "Virtual (simulated) makespans and re-execution counts per "
               "cell — machine-independent DES outputs, gated exactly. Any "
               "drift means the engine's fault handling or event ordering "
               "changed; refresh deliberately with --update-baseline after "
               "auditing the new schedule.",
           .usage = "--fractions=F[,F...] --tasks=N --parallelism=P"
                    " (sim-only)"});
  const std::vector<double> fractions = list_flag(
      b.flags, "fractions", "0,0.125,0.25,0.375", "numbers in [0, 1)",
      [](const std::string& s) -> std::optional<double> {
        const auto f = to_number<double>(s);
        return f && *f >= 0.0 && *f < 1.0 ? f : std::nullopt;
      });
  const std::int64_t tasks = int_flag(b.flags, "tasks", 240, 1);
  const std::int64_t parallelism = int_flag(b.flags, "parallelism", 4, 1);

  const Topology topo = Topology::tx2();
  workloads::SyntheticDagSpec spec;
  spec.type = b.ids.matmul;  // Bench registers the paper kernels
  spec.parallelism = static_cast<int>(parallelism);
  spec.total_tasks = static_cast<int>(tasks);
  spec.params.p0 = 16;
  const Dag dag = workloads::make_synthetic_dag(spec);

  print_backend(b);
  print_title("Fault recovery: degraded makespan and re-execution per "
              "fail fraction (kill at 0.5 x clean makespan)");
  TextTable table({"cell", "policy", "victims", "makespan[s]", "degr",
                   "reexec", "recovery[s]"});

  const auto run_cell = [&](Policy policy,
                            const std::optional<scenario::ScenarioSpec>& fault,
                            double clean, const std::string& label,
                            std::int64_t victims, double t_fail) {
    auto exec = make_executor(Backend::kSim, topo, policy, b.registry,
                              {.seed = b.seed, .scenario_spec = fault});
    const RunResult r = exec->run(dag);
    DAS_CHECK_MSG(r.ok() && r.tasks == tasks,
                  "fault_recovery: job must complete despite faults");

    const double degradation = clean > 0.0 ? r.makespan_s / clean : 0.0;
    // Recovery tail: virtual time between the kill and completion. For the
    // clean cell (no kill) this is just the full makespan.
    const double recovery_s = r.makespan_s - t_fail;
    b.gate.check(Gate::kExact, label, r.makespan_s, "makespan_s");
    b.gate.check(Gate::kExact, label, static_cast<double>(r.tasks_reexecuted),
                 "tasks_reexecuted");

    json::Value rec = json::Value::object();
    rec.set("label", label);
    rec.set("policy", policy_name(policy));
    rec.set("backend", "sim");
    rec.set("seed", b.seed);
    rec.set("tasks", tasks);
    rec.set("parallelism", parallelism);
    rec.set("victims", victims);
    rec.set("fault_t_s", t_fail);
    rec.set("makespan_s", r.makespan_s);
    rec.set("degradation", degradation);
    rec.set("tasks_reexecuted", r.tasks_reexecuted);
    rec.set("recovery_s", recovery_s);
    b.report_raw(std::move(rec));

    table.row()
        .add(label)
        .add(policy_name(policy))
        .add(static_cast<double>(victims), 0)
        .add(r.makespan_s, 6)
        .add(degradation, 3)
        .add(static_cast<double>(r.tasks_reexecuted), 0)
        .add(recovery_s, 6);
  };

  for (Policy policy : b.policies({Policy::kDamC, Policy::kRws})) {
    // Clean probe: sizes every fault onset for this policy and doubles as
    // the fraction=0 cell.
    double clean = 0.0;
    {
      auto exec = make_executor(Backend::kSim, topo, policy, b.registry,
                                {.seed = b.seed});
      const RunResult r = exec->run(dag);
      DAS_CHECK_MSG(r.ok(), "fault_recovery: clean probe failed");
      clean = r.makespan_s;
    }

    for (const double f : fractions) {
      const std::int64_t victims =
          static_cast<std::int64_t>(std::ceil(f * topo.num_cores()));
      const std::string label = std::string("sim/") + policy_name(policy) +
                                "/fail=" + fmt_double(f, 3);
      if (victims == 0) {
        run_cell(policy, std::nullopt, clean, label, 0, 0.0);
        continue;
      }
      scenario::ScenarioSpec fault;
      fault.name = "bench-fail-stop";
      fault.faults.push_back(scenario::FaultSpec{
          .kind = scenario::FaultSpec::Kind::kFail,
          .cores = {},
          .cluster = scenario::FaultSpec::kNoCluster,
          .fraction = f,
          .t_s = clean * 0.5,
          .duration_s = 0.0,
          .slowdown = 0.0});
      run_cell(policy, fault, clean, label, victims, clean * 0.5);
    }

    // The other failure mode: permanent stragglers (no deaths, no
    // re-execution — pure interference degradation). Same shape as the
    // catalog's "straggler-tail" but with the onset scaled to THIS dag's
    // clean makespan (the catalog's absolute 0.5 s onset would land long
    // after a millisecond-scale job finished).
    scenario::ScenarioSpec straggler;
    straggler.name = "bench-straggler-tail";
    straggler.faults.push_back(scenario::FaultSpec{
        .kind = scenario::FaultSpec::Kind::kStraggler,
        .cores = {},
        .cluster = scenario::FaultSpec::kNoCluster,
        .fraction = 0.25,
        .t_s = clean * 0.5,
        .duration_s = 0.0,
        .slowdown = 0.2});
    run_cell(policy, straggler, clean,
             std::string("sim/") + policy_name(policy) + "/straggler-tail",
             0, clean * 0.5);
  }
  table.print(std::cout);

  return b.finish();
}
