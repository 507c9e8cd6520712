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
// Regression gate (the CI cell): --baseline=PATH compares each cell's
// gating throughput against a checked-in JSON baseline and exits 1 when any
// cell regresses by more than --tolerance (default 0.25, the ">25%" CI
// contract). --update-baseline rewrites PATH from this run instead —
// refresh it on the machine class that enforces the gate.
//
// Flags beyond the common set (README "Performance" documents the
// methodology):
//   --tasks=N[,N...]         task counts to sweep      (default 10000,100000)
//   --parallelism=P[,P...]   DAG widths to sweep       (default 1,num_cores)
//   --grain=NS               per-task busy-work in ns  (default 0 = empty)
//   --baseline=PATH          gate against baseline     (exit 1 on regression)
//   --update-baseline        rewrite PATH from this run
//   --tolerance=F            allowed fractional loss   (default 0.25)

#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "../bench/support.hpp"
#include "util/time.hpp"

using namespace das;
using namespace das::bench;

namespace {

struct Cell {
  std::string label;
  double gate_tasks_per_s = 0.0;
};

std::vector<std::int64_t> parse_int_list(const cli::Flags& flags,
                                         const std::string& key,
                                         std::vector<std::int64_t> def) {
  if (!flags.has(key)) return def;
  std::vector<std::int64_t> out;
  for (const std::string& part : cli::split(flags.get(key), ',')) {
    try {
      std::size_t pos = 0;
      const std::int64_t v = std::stoll(part, &pos);
      // The sweep values become int DAG sizes: reject what would truncate.
      if (pos != part.size() || v <= 0 ||
          v > std::numeric_limits<int>::max())
        throw std::invalid_argument(part);
      out.push_back(v);
    } catch (const std::exception&) {
      cli::die("--" + key + " expects a comma-separated list of positive "
               "int-range integers, got '" + part + "'");
    }
  }
  if (out.empty()) cli::die("--" + key + " must name at least one value");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Flags flags(argc, argv);
  cli::maybe_help(
      flags, std::string(cli::kCommonFlagsUsage) +
                 " --tasks=N[,N...] --parallelism=P[,P...] --grain=NS"
                 " --baseline=PATH --update-baseline --tolerance=F"
                 " (no --scale: task counts are explicit)");
  cli::require_no_positionals(flags);
  flags.require_known({"backend", "policy", "scenario", "json", "seed", "help",
                       "tasks", "parallelism", "grain", "baseline",
                       "update-baseline", "tolerance"});

  Bench b("overhead_scaling");
  b.backend = backend_flag(flags, Backend::kRt);  // overhead is an rt story
  b.seed = flags.get_u64("seed", kFigureSeed);
  b.scenario_override = scenario_flag(flags);
  if (flags.has("policy")) {
    for (const std::string& pname : cli::split(flags.get("policy"), ',')) {
      const auto p = parse_policy(pname);
      if (!p) cli::die("unknown policy '" + pname + "'");
      b.policy_filter.push_back(*p);
    }
  }
  if (flags.has("json")) {
    b.json_path = flags.get("json");
    if (b.json_path.empty()) b.json_path = "BENCH_overhead_scaling.json";
    b.runs = json::Value::array();
  }

  const auto tasks_sweep = parse_int_list(flags, "tasks", {10000, 100000});
  const auto par_sweep = parse_int_list(
      flags, "parallelism", {1, static_cast<std::int64_t>(b.topo.num_cores())});
  const std::int64_t grain_ns = flags.get_int("grain", 0);
  if (grain_ns < 0) cli::die("--grain must be >= 0 nanoseconds");
  const std::string baseline_path = flags.get("baseline");
  const bool update_baseline = flags.has("update-baseline");
  if (update_baseline && baseline_path.empty())
    cli::die("--update-baseline needs --baseline=PATH to know where to write");
  const double tolerance = flags.get_double("tolerance", 0.25);
  if (!(tolerance > 0.0 && tolerance < 1.0))
    cli::die("--tolerance must be in (0, 1)");

  // The swept kernel: zero (or --grain) seconds of work so every remaining
  // cycle is scheduling machinery. One registered type serves both engines —
  // the closure drives rt, the cost model drives the DES. At grain 0 the
  // cost is the constant 1e-9 (exactly what the lambda would compute), so
  // registering through the fixed-cost factory lets the DES evaluate the
  // closed form inline instead of calling through the std::function — the
  // overhead floor this bench exists to measure. A positive grain divides by
  // q.speed and must stay a callable.
  const double grain_s = static_cast<double>(grain_ns) * 1e-9;
  const TaskTypeId empty_id =
      grain_ns == 0
          ? b.registry.register_type("empty", kernels::fixed_cost(1e-9))
          : b.registry.register_type(
                "empty", [grain_s](const TaskParams&, const CostQuery& q) {
                  return std::max(grain_s / q.speed, 1e-9);
                });

  print_backend(b);
  const SpeedScenario scenario =
      b.make_scenario(b.topo, [](SpeedScenario&) {});  // default: clean

  print_title("Scheduler overhead: empty-kernel fine-grained DAG sweep");
  std::cout << "grain: " << grain_ns << " ns/task\n";
  TextTable table({"cell", "policy", "makespan[s]", "tasks/s", "overhead ns/task",
                   "wall[s]", "wall tasks/s"});
  std::vector<Cell> cells;

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
        cells.push_back(Cell{label, gate});

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

  // --- baseline gate --------------------------------------------------------
  if (update_baseline) {
    // Merge-update: cells from other invocations (the other backend, other
    // sweeps) survive; only this run's cells are rewritten.
    json::Value cells_json = json::Value::object();
    try {
      const json::Value old = json::parse_file(baseline_path);
      if (const json::Value* oc = old.find("cells"); oc && oc->is_object())
        for (const auto& [label, v] : oc->members()) cells_json.set(label, v);
    } catch (const json::Error&) {
      // No (readable) previous baseline: start fresh.
    }
    for (const Cell& c : cells) cells_json.set(c.label, c.gate_tasks_per_s);

    json::Value doc = json::Value::object();
    doc.set("schema_version", kResultSchemaVersion);
    doc.set("bench", "overhead_scaling_baseline");
    doc.set("note", "gate throughput per cell (tasks/s); refresh with "
                    "--update-baseline on the machine class that enforces "
                    "the gate");
    doc.set("cells", std::move(cells_json));
    std::ofstream out(baseline_path, std::ios::binary | std::ios::trunc);
    out << doc.dump(2) << '\n';
    if (!out) {
      std::cerr << "error: cannot write baseline to '" << baseline_path << "'\n";
      return 2;
    }
    std::cout << "updated baseline " << baseline_path << "\n";
  } else if (!baseline_path.empty()) {
    int regressions = 0;
    try {
      const json::Value doc = json::parse_file(baseline_path);
      const json::Value* cells_json = doc.find("cells");
      if (cells_json == nullptr || !cells_json->is_object())
        throw json::Error(baseline_path + ": missing 'cells' object");
      for (const Cell& c : cells) {
        const json::Value* ref = cells_json->find(c.label);
        if (ref == nullptr) {
          std::cout << "baseline: no reference for cell '" << c.label
                    << "' (skipped)\n";
          continue;
        }
        const double floor = ref->as_number() * (1.0 - tolerance);
        if (c.gate_tasks_per_s < floor) {
          std::cerr << "REGRESSION " << c.label << ": " << fmt_double(c.gate_tasks_per_s, 0)
                    << " tasks/s < " << fmt_double(floor, 0) << " (baseline "
                    << fmt_double(ref->as_number(), 0) << " - " << tolerance * 100
                    << "%)\n";
          ++regressions;
        } else {
          std::cout << "ok " << c.label << ": " << fmt_double(c.gate_tasks_per_s, 0)
                    << " tasks/s (baseline " << fmt_double(ref->as_number(), 0)
                    << ")\n";
        }
      }
    } catch (const json::Error& e) {
      std::cerr << "error: cannot read baseline: " << e.what() << "\n";
      return 2;
    }
    if (regressions > 0) {
      std::cerr << regressions << " cell(s) regressed beyond " << tolerance * 100
                << "% — investigate or refresh with --update-baseline\n";
      const int rc = b.finish();
      return rc != 0 ? rc : 1;
    }
  }

  return b.finish();
}
