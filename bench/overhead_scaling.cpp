// Scheduler-overhead benchmark and regression sentinel.
//
// Drives empty-kernel (or --grain=NS busy-work) fine-grained layered DAGs
// through the das::Executor facade and reports, per (backend, tasks,
// parallelism) cell,
//   - tasks/s            job throughput: tasks / makespan. On rt the
//                        makespan is wall seconds, so this measures the
//                        runtime's dispatch machinery; with grain=0 every
//                        cycle is scheduling overhead by construction.
//   - overhead ns/task   (makespan - ideal compute) / tasks, where ideal
//                        compute = tasks x grain / min(parallelism, cores):
//                        wall nanoseconds of runtime overhead added per
//                        task. Equals makespan/tasks for the empty kernel.
//   - wall tasks/s (sim) the SIMULATOR's own throughput — tasks simulated
//                        per wall second (virtual-time throughput would say
//                        nothing about engine overhead) — the sentinel for
//                        the event-queue hot path.
//
// Regression gate (the CI cell, bench/support.hpp Gate): a cell fails when
// its gating throughput falls below 0.75 x its reference in
// --baseline=PATH. Exit 0 pass, 1 a cell failed, 2 the baseline is
// unreadable or matches no cell. --update-baseline merge-rewrites PATH
// from this run instead — on the machine class that enforces the gate.
//
// Flags beyond the common set (README "Performance" documents the
// methodology):
//   --tasks=N[,N...]         task counts to sweep      (default 10000,100000)
//   --parallelism=P[,P...]   DAG widths to sweep       (default 1,num_cores)
//   --grain=NS               per-task busy-work in ns  (default 0 = empty)
//   --baseline=PATH          gate against baseline     (exit 1 on regression)
//   --update-baseline        merge-rewrite PATH from this run

#include <iostream>
#include <string>
#include <vector>

#include "../bench/support.hpp"
#include "util/time.hpp"

using namespace das;
using namespace das::bench;

int main(int argc, char** argv) {
  Bench b(argc, argv, "overhead_scaling",
          {.without = {"scale"},
           .backend = Backend::kRt,  // overhead is an rt story
           .gate_note = "gate throughput per cell (tasks/s); refresh with "
                        "--update-baseline on the machine class that "
                        "enforces the gate",
           .usage = "--tasks=N[,N...] --parallelism=P[,P...] --grain=NS"
                    " (task counts are explicit: no scale)"});
  const auto tasks_sweep = int_list_flag(b.flags, "tasks", "10000,100000");
  const auto par_sweep = int_list_flag(
      b.flags, "parallelism", "1," + std::to_string(b.topo.num_cores()));
  const std::int64_t grain_ns = int_flag(b.flags, "grain", 0, 0, " ns");

  // The swept kernel: zero (or --grain) seconds of work so every remaining
  // cycle is scheduling machinery. One registered type serves both engines —
  // the closure drives rt, the cost model drives the DES. Grain 0 costs the
  // constant 1e-9 s; a positive grain is work that slows with its core's
  // speed (the DES floors every participation at 1e-9 s).
  const double grain_s = static_cast<double>(grain_ns) * 1e-9;
  const TaskTypeId empty_id = b.registry.register_type(
      "empty", grain_ns == 0 ? kernels::fixed_cost(1e-9)
                             : kernels::work_cost(grain_s));

  print_backend(b);
  const SpeedScenario scenario =
      b.make_scenario(b.topo, [](SpeedScenario&) {});  // default: clean

  print_title("Scheduler overhead: empty-kernel fine-grained DAG sweep");
  std::cout << "grain: " << grain_ns << " ns/task\n";
  TextTable table({"cell", "policy", "makespan[s]", "tasks/s", "overhead ns/task",
                   "wall[s]", "wall tasks/s"});

  for (Policy policy : b.policies({Policy::kRws})) {
    for (const std::int64_t tasks : tasks_sweep) {
      for (const std::int64_t par : par_sweep) {
        workloads::SyntheticDagSpec spec;
        spec.type = empty_id;
        spec.parallelism = static_cast<int>(par);
        spec.total_tasks = static_cast<int>(tasks);
        if (grain_ns > 0 || b.backend == Backend::kRt) {
          spec.work = [grain_ns](const ExecContext&) {
            if (grain_ns > 0) busy_wait_ns(grain_ns);
          };
        }
        const Dag dag = workloads::make_synthetic_dag(spec);

        auto exec = b.make(policy, &scenario, b.make_config());
        Stopwatch wall;
        const RunResult r = exec->run(dag);
        const double wall_s = wall.elapsed_s();

        const double lanes =
            static_cast<double>(std::min<std::int64_t>(par, b.topo.num_cores()));
        const double ideal_s =
            static_cast<double>(r.tasks) * grain_s / lanes;
        const double overhead_ns_per_task =
            (r.makespan_s - ideal_s) * 1e9 / static_cast<double>(r.tasks);
        const double wall_tasks_per_s =
            static_cast<double>(r.tasks) / wall_s;
        // rt gates on dispatch throughput; sim gates on simulator (wall)
        // throughput — virtual tasks/s would not see engine overhead.
        const double gate =
            b.backend == Backend::kRt ? r.tasks_per_s : wall_tasks_per_s;

        const std::string label =
            std::string(backend_name(b.backend)) + "/" + policy_name(policy) +
            "/tasks=" + std::to_string(tasks) + "/p=" + std::to_string(par) +
            "/grain=" + std::to_string(grain_ns);
        b.gate.check(Gate::kFloor, label, gate);

        json::Value extra = json::Value::object();
        extra.set("tasks_swept", tasks);
        extra.set("parallelism", par);
        extra.set("grain_ns", grain_ns);
        extra.set("wall_s", wall_s);
        extra.set("wall_tasks_per_s", wall_tasks_per_s);
        extra.set("overhead_ns_per_task", overhead_ns_per_task);
        extra.set("gate_tasks_per_s", gate);
        b.report(label, r, std::move(extra));

        table.row()
            .add(label)
            .add(policy_name(policy))
            .add(r.makespan_s, 4)
            .add(r.tasks_per_s, 0)
            .add(overhead_ns_per_task, 1)
            .add(wall_s, 4)
            .add(wall_tasks_per_s, 0);
      }
    }
  }
  table.print(std::cout);

  return b.finish();
}
