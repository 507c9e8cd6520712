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
// gate is EXACT by default: --baseline=PATH compares each cell's virtual
// makespan and re-execution count against the checked-in JSON and exits 1
// on ANY drift (--tolerance relaxes the makespan check for intentionally
// approximate refreshes). This is a behaviour golden, not a perf gate —
// wall time never enters the comparison, so it holds on any machine class.
//
// Flags beyond the common set:
//   --fractions=F[,F...]  fail fractions to sweep   (default 0,0.125,0.25,0.375)
//   --tasks=N             DAG size per job          (default 240)
//   --parallelism=P       DAG width                 (default 4)
//   --baseline=PATH       gate against baseline     (exit 1 on drift)
//   --update-baseline     rewrite PATH from this run
//   --tolerance=F         allowed relative makespan drift (default 0 = exact)

#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "../bench/support.hpp"
#include "exec/executor.hpp"
#include "scenario/scenario.hpp"
#include "workloads/synthetic_dag.hpp"

using namespace das;
using namespace das::bench;

namespace {

struct Cell {
  std::string label;
  double makespan_s = 0.0;
  std::int64_t reexecuted = 0;
};

std::vector<double> parse_fractions(const cli::Flags& flags) {
  std::vector<double> out;
  for (const std::string& part :
       cli::split(flags.get("fractions", "0,0.125,0.25,0.375"), ',')) {
    try {
      std::size_t pos = 0;
      const double f = std::stod(part, &pos);
      if (pos != part.size() || f < 0.0 || f >= 1.0)
        throw std::invalid_argument(part);
      out.push_back(f);
    } catch (const std::exception&) {
      cli::die("--fractions expects a comma-separated list in [0, 1), got '" +
               part + "'");
    }
  }
  if (out.empty()) cli::die("--fractions must name at least one value");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Flags flags(argc, argv);
  cli::maybe_help(flags,
                  " --policy=NAME[,..] --json=PATH --seed=N"
                  " --fractions=F[,F...] --tasks=N --parallelism=P"
                  " --baseline=PATH --update-baseline --tolerance=F"
                  " (sim-only: no --backend/--scale/--scenario)");
  cli::require_no_positionals(flags);
  flags.require_known({"policy", "json", "seed", "help", "fractions", "tasks",
                       "parallelism", "baseline", "update-baseline",
                       "tolerance"});

  Bench b("fault_recovery");
  b.backend = Backend::kSim;
  b.seed = flags.get_u64("seed", kFigureSeed);
  if (flags.has("policy")) {
    for (const std::string& pname : cli::split(flags.get("policy"), ',')) {
      const auto p = parse_policy(pname);
      if (!p) cli::die("unknown policy '" + pname + "'");
      b.policy_filter.push_back(*p);
    }
  }
  if (flags.has("json")) {
    b.json_path = flags.get("json");
    if (b.json_path.empty()) b.json_path = "BENCH_fault_recovery.json";
    b.runs = json::Value::array();
  }

  const std::vector<double> fractions = parse_fractions(flags);
  const std::int64_t tasks = flags.get_int("tasks", 240);
  const std::int64_t parallelism = flags.get_int("parallelism", 4);
  if (tasks < 1 || parallelism < 1)
    cli::die("--tasks and --parallelism must be >= 1");

  const std::string baseline_path = flags.get("baseline");
  const bool update_baseline = flags.has("update-baseline");
  if (update_baseline && baseline_path.empty())
    cli::die("--update-baseline needs --baseline=PATH to know where to write");
  const double tolerance = flags.get_double("tolerance", 0.0);
  if (tolerance < 0.0 || tolerance >= 1.0)
    cli::die("--tolerance must be in [0, 1)");

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
  std::vector<Cell> cells;

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
    cells.push_back(Cell{label, r.makespan_s, r.tasks_reexecuted});

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

  // --- baseline gate (behaviour golden, not perf) ---------------------------
  if (update_baseline) {
    json::Value cells_json = json::Value::object();
    for (const Cell& c : cells) {
      json::Value entry = json::Value::object();
      entry.set("makespan_s", c.makespan_s);
      entry.set("tasks_reexecuted", c.reexecuted);
      cells_json.set(c.label, std::move(entry));
    }
    json::Value doc = json::Value::object();
    doc.set("schema_version", kResultSchemaVersion);
    doc.set("bench", "fault_recovery_baseline");
    doc.set("note", "Virtual (simulated) makespans and re-execution counts "
                    "per cell — machine-independent DES outputs, gated "
                    "exactly. Any drift means the engine's fault handling or "
                    "event ordering changed; refresh deliberately with "
                    "--update-baseline after auditing the new schedule.");
    doc.set("cells", std::move(cells_json));
    std::ofstream out(baseline_path, std::ios::binary | std::ios::trunc);
    out << doc.dump(2) << '\n';
    if (!out) {
      std::cerr << "error: cannot write baseline to '" << baseline_path
                << "'\n";
      return 2;
    }
    std::cout << "updated baseline " << baseline_path << "\n";
  } else if (!baseline_path.empty()) {
    int drifts = 0;
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
        const auto number = [&](const char* key) {
          const json::Value* v = ref->find(key);
          if (v == nullptr)
            throw json::Error(baseline_path + ": cell '" + c.label +
                              "' has no '" + key + "' number");
          return v->as_number();
        };
        const double want_ms = number("makespan_s");
        const auto want_re =
            static_cast<std::int64_t>(number("tasks_reexecuted"));
        const double drift =
            want_ms > 0.0 ? std::abs(c.makespan_s - want_ms) / want_ms : 0.0;
        if (drift > tolerance || c.reexecuted != want_re) {
          std::cerr << "DRIFT " << c.label << ": makespan "
                    << fmt_double(c.makespan_s, 9) << " vs baseline "
                    << fmt_double(want_ms, 9) << ", reexecuted "
                    << c.reexecuted << " vs " << want_re << "\n";
          ++drifts;
        } else {
          std::cout << "ok " << c.label << ": makespan "
                    << fmt_double(c.makespan_s, 9) << ", reexecuted "
                    << c.reexecuted << "\n";
        }
      }
    } catch (const json::Error& e) {
      std::cerr << "error: cannot read baseline: " << e.what() << "\n";
      return 2;
    }
    if (drifts > 0) {
      std::cerr << drifts << " cell(s) drifted from the fault-recovery "
                   "baseline — the fault path's schedule changed; audit and "
                   "refresh with --update-baseline\n";
      const int rc = b.finish();
      return rc != 0 ? rc : 1;
    }
  }

  return b.finish();
}
