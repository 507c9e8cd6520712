// Simulator-throughput benchmark and regression sentinel.
//
// Measures the discrete-event engine's OWN speed — how many events and
// simulated tasks it retires per wall second — which is what bounds how much
// of the scheduling design space (topology width, DAG size, job-stream
// length) a CI budget can explore. Virtual-time numbers would say nothing
// here: every cell also prints its virtual makespan purely as a determinism
// cross-check (it must not move when the engine gets faster).
//
// Per (cores, tasks, jobs, policy) cell the bench drives an empty-kernel
// layered DAG (parallelism = the core count unless --parallelism says
// otherwise) through sim::SimEngine directly — not the facade — so it can
// read SimEngine::events_processed() and sweep synthetic symmetric
// topologies far wider than the paper's TX2. With --jobs=N the same DAG is
// submitted N times back-to-back (overlapping in virtual time), exercising
// the multi-job interleave path.
//
// Each cell also times building and sealing its DAG (dag_build_s in the
// table and the JSON; reported, not gated).
//
// Regression gate (the CI cell): --baseline=PATH compares each cell's
// events/s against a checked-in JSON baseline and exits 1 when any cell
// regresses by more than --tolerance (default 0.25, the ">25%" CI
// contract). --update-baseline rewrites PATH from this run instead.
//
// Flags beyond the common set (README "Performance" documents the
// methodology):
//   --cores=N[,N...]        symmetric topology widths   (default 8,64)
//   --tasks=N[,N...]        DAG sizes to sweep          (default 100000)
//   --jobs=N                jobs per cell               (default 1)
//   --parallelism=P[,P...]  DAG widths; "auto" = the core count (balanced
//                           layered DAG), "fanout" = the task count (one
//                           layer, maximal fan-out — the shape that made
//                           the old per-core vector queues quadratic).
//                           Default: auto,fanout
//   --ranks=N[,N...]        scheduling domains per cell (default 1). For
//                           N > 1 each rank gets its own --cores-wide
//                           symmetric topology and the layered DAG is
//                           replicated per rank with halo cross-rank delay
//                           edges (heat-band shape), so the conservative
//                           window protocol has real boundary traffic.
//                           Labels gain "/ranks=N".
//   --des-threads=N[,..]    SimOptions::des_threads per cell: integers or
//                           "auto" (= hardware concurrency; the engine
//                           clamps to the rank count). Default 1 (serial
//                           windows). Labels gain "/des=N"; cells print
//                           per-rank events/s and the aggregate speedup
//                           over the serial cell of the same shape.
//   --baseline=PATH         gate against baseline       (exit 1 on regression)
//   --update-baseline       rewrite PATH from this run
//   --tolerance=F           allowed fractional loss     (default 0.25)

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "../bench/support.hpp"
#include "sim/engine.hpp"
#include "util/time.hpp"

using namespace das;
using namespace das::bench;

namespace {

struct Cell {
  std::string label;
  double events_per_s = 0.0;
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

/// Symmetric topology for a swept core count: clusters of 8 when the count
/// tiles evenly (wider sweeps model multi-socket nodes), one cluster
/// otherwise. Cluster shape only gates the valid place widths; the cells
/// are labelled by total core count.
Topology make_topology(int cores) {
  if (cores >= 8 && cores % 8 == 0) return Topology::symmetric(cores / 8, 8);
  return Topology::symmetric(1, cores);
}

/// Multi-rank variant of the layered synthetic DAG: every rank carries its
/// own critical chain of `parallelism`-wide layers, and each layer's
/// critical task additionally releases the NEXT layer's critical task on
/// the neighbouring ranks through a delayed cross-rank edge — the heat
/// band-decomposition shape (workloads/heat.hpp), which both bounds the
/// conservative lookahead (min cross-rank delay = cross_delay_s) and
/// forces boundary-queue traffic in steady state.
Dag make_multi_rank_dag(TaskTypeId type, int ranks, int total_tasks,
                        int parallelism, double cross_delay_s) {
  Dag dag;
  const int per_rank = std::max(1, total_tasks / ranks);
  const int width = std::min(parallelism, per_rank);
  const int layers = std::max(1, per_rank / width);
  std::vector<std::vector<NodeId>> crit(
      static_cast<std::size_t>(layers),
      std::vector<NodeId>(static_cast<std::size_t>(ranks)));
  for (int l = 0; l < layers; ++l) {
    for (int r = 0; r < ranks; ++r) {
      for (int p = 0; p < width; ++p) {
        const NodeId id = dag.add_node(
            type, p == 0 ? Priority::kHigh : Priority::kLow);
        dag.node(id).rank = r;
        if (p == 0) crit[static_cast<std::size_t>(l)]
                        [static_cast<std::size_t>(r)] = id;
        if (l > 0)
          dag.add_edge(crit[static_cast<std::size_t>(l - 1)]
                           [static_cast<std::size_t>(r)], id);
      }
      if (l > 0) {
        const NodeId head = crit[static_cast<std::size_t>(l)]
                                [static_cast<std::size_t>(r)];
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
  dag.seal();  // builders hand out sealed (CSR-compacted) DAGs
  return dag;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Flags flags(argc, argv);
  cli::maybe_help(
      flags,
      " --policy=NAME[,..] --scenario=N|FILE --json=PATH --seed=N"
      " --cores=N[,N...] --tasks=N[,N...] --jobs=N"
      " --parallelism=P[,P...]|auto|fanout"
      " --ranks=N[,N...] --des-threads=N[,N...]|auto"
      " --baseline=PATH --update-baseline --tolerance=F"
      " (sim-only: no --backend/--scale)");
  cli::require_no_positionals(flags);
  flags.require_known({"policy", "scenario", "json", "seed", "help", "cores",
                       "tasks", "jobs", "parallelism", "ranks", "des-threads",
                       "baseline", "update-baseline", "tolerance"});

  Bench b("sim_throughput");
  b.backend = Backend::kSim;
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
    if (b.json_path.empty()) b.json_path = "BENCH_sim_throughput.json";
    b.runs = json::Value::array();
  }

  const auto cores_sweep = parse_int_list(flags, "cores", {8, 64});
  const auto tasks_sweep = parse_int_list(flags, "tasks", {100000});
  const std::int64_t jobs = flags.get_int("jobs", 1);
  if (jobs < 1) cli::die("--jobs must be >= 1");
  // Parallelism entries: positive width, 0 = auto (= cores), -1 = fanout
  // (= tasks; one layer, every task a root).
  std::vector<std::int64_t> par_sweep;
  for (const std::string& part :
       cli::split(flags.get("parallelism", "auto,fanout"), ',')) {
    if (part == "auto") {
      par_sweep.push_back(0);
    } else if (part == "fanout") {
      par_sweep.push_back(-1);
    } else {
      try {
        std::size_t pos = 0;
        const std::int64_t v = std::stoll(part, &pos);
        if (pos != part.size() || v < 1 || v > std::numeric_limits<int>::max())
          throw std::invalid_argument(part);
        par_sweep.push_back(v);
      } catch (const std::exception&) {
        cli::die("--parallelism expects a comma-separated list of positive "
                 "integers, 'auto' or 'fanout', got '" + part + "'");
      }
    }
  }
  if (par_sweep.empty()) cli::die("--parallelism must name at least one value");
  const auto ranks_sweep = parse_int_list(flags, "ranks", {1});
  // des-threads entries: positive thread counts, -1 = auto (hardware
  // concurrency; the engine clamps to the rank count either way).
  std::vector<int> des_sweep;
  for (const std::string& part :
       cli::split(flags.get("des-threads", "1"), ',')) {
    if (part == "auto") {
      des_sweep.push_back(-1);
    } else {
      try {
        std::size_t pos = 0;
        const long v = std::stol(part, &pos);
        if (pos != part.size() || v < 1 || v > 4096)
          throw std::invalid_argument(part);
        des_sweep.push_back(static_cast<int>(v));
      } catch (const std::exception&) {
        cli::die("--des-threads expects a comma-separated list of positive "
                 "integers or 'auto', got '" + part + "'");
      }
    }
  }
  if (des_sweep.empty()) cli::die("--des-threads must name at least one value");
  const int auto_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  const std::string baseline_path = flags.get("baseline");
  const bool update_baseline = flags.has("update-baseline");
  if (update_baseline && baseline_path.empty())
    cli::die("--update-baseline needs --baseline=PATH to know where to write");
  const double tolerance = flags.get_double("tolerance", 0.25);
  if (!(tolerance > 0.0 && tolerance < 1.0))
    cli::die("--tolerance must be in (0, 1)");

  // Empty kernel: with ~zero virtual work per task the wall clock measures
  // the event machinery, not the cost model. Registered through the fixed-
  // cost factory (not a bare lambda) so the engine evaluates the closed
  // form inline instead of calling through the std::function.
  const TaskTypeId empty_id =
      b.registry.register_type("empty", kernels::fixed_cost(1e-9));

  print_backend(b);
  print_title("Simulator throughput: events/s over topology and DAG sweeps");
  TextTable table({"cell", "policy", "events", "wall[s]", "events/s",
                   "sim tasks/s", "vmakespan[s]", "rank ev/s", "x-serial",
                   "dag build[s]"});
  std::vector<Cell> cells;
  // Serial (no "/des=" suffix) events/s per shape, for the speedup column.
  std::map<std::string, double> serial_eps;

  for (Policy policy : b.policies({Policy::kRws})) {
    for (const std::int64_t cores : cores_sweep) {
      const Topology topo = make_topology(static_cast<int>(cores));
      const SpeedScenario scenario =
          b.make_scenario(topo, [](SpeedScenario&) {});  // default: clean
      for (const std::int64_t tasks : tasks_sweep) {
       for (const std::int64_t par : par_sweep) {
       for (const std::int64_t ranks_n : ranks_sweep) {
       for (const int des_req : des_sweep) {
        // A single rank has nothing to thread: one serial cell per shape.
        if (ranks_n == 1 && des_req != des_sweep.front()) continue;
        const int des_threads = des_req < 0 ? auto_threads : des_req;

        workloads::SyntheticDagSpec spec;
        spec.type = empty_id;
        spec.parallelism = par > 0    ? static_cast<int>(par)
                           : par == 0 ? static_cast<int>(cores)
                                      : static_cast<int>(tasks);
        spec.total_tasks = static_cast<int>(tasks);
        const Stopwatch build;
        const Dag dag =
            ranks_n == 1
                ? workloads::make_synthetic_dag(spec)
                : make_multi_rank_dag(empty_id, static_cast<int>(ranks_n),
                                      static_cast<int>(tasks),
                                      spec.parallelism, 30e-6);
        const double dag_build_s = build.elapsed_s();

        sim::SimOptions opts;
        opts.seed = b.seed;
        opts.des_threads = des_threads;
        // The historical single-rank ctor stays on the ranks=1 path so the
        // default cells (and the checked-in baseline labels) keep measuring
        // the identical engine configuration.
        const std::vector<sim::RankSpec> rank_specs(
            static_cast<std::size_t>(ranks_n),
            sim::RankSpec{&topo, &scenario});
        std::optional<sim::SimEngine> eng_holder;
        if (ranks_n == 1)
          eng_holder.emplace(topo, policy, b.registry, opts, &scenario);
        else
          eng_holder.emplace(rank_specs, policy, b.registry, opts);
        sim::SimEngine& eng = *eng_holder;

        Stopwatch wall;
        std::vector<JobId> ids;
        ids.reserve(static_cast<std::size_t>(jobs));
        for (std::int64_t j = 0; j < jobs; ++j) ids.push_back(eng.submit(dag));
        double last_makespan = 0.0;
        for (const JobId id : ids) last_makespan = eng.wait(id);
        const double wall_s = wall.elapsed_s();

        const std::uint64_t events = eng.events_processed();
        const double events_per_s = static_cast<double>(events) / wall_s;
        const std::int64_t total_tasks =
            static_cast<std::int64_t>(dag.num_nodes()) * jobs;
        const double sim_tasks_per_s =
            static_cast<double>(total_tasks) / wall_s;

        std::vector<double> rank_eps;
        for (int r = 0; r < static_cast<int>(ranks_n); ++r)
          rank_eps.push_back(static_cast<double>(eng.events_processed(r)) /
                             wall_s);

        // Non-default modes carry label suffixes; the default (single-rank,
        // serial) labels are unchanged so existing baselines keep matching.
        const std::string label =
            std::string("sim/") + policy_name(policy) + "/" +
            b.scenario_name() + "/cores=" + std::to_string(cores) +
            "/tasks=" + std::to_string(tasks) +
            "/p=" + std::to_string(spec.parallelism) +
            "/jobs=" + std::to_string(jobs) +
            (ranks_n > 1 ? "/ranks=" + std::to_string(ranks_n) : "") +
            (des_req != 1
                 ? std::string("/des=") +
                       (des_req < 0 ? std::string("auto")
                                    : std::to_string(des_req))
                 : "");
        cells.push_back(Cell{label, events_per_s});

        // Aggregate speedup over the serial cell of the same shape (only
        // meaningful once that cell ran — put 1 before N in --des-threads).
        std::string base_label = label;
        if (const auto cut = base_label.find("/des=");
            cut != std::string::npos)
          base_label.resize(cut);
        if (label == base_label) serial_eps[base_label] = events_per_s;
        double speedup = 0.0;
        if (label != base_label) {
          const auto it = serial_eps.find(base_label);
          if (it != serial_eps.end() && it->second > 0.0)
            speedup = events_per_s / it->second;
        }

        json::Value rec = json::Value::object();
        rec.set("label", label);
        rec.set("policy", policy_name(policy));
        rec.set("backend", "sim");
        rec.set("scenario", b.scenario_name());
        rec.set("seed", b.seed);
        rec.set("cores", cores);
        rec.set("tasks_swept", tasks);
        rec.set("jobs", jobs);
        rec.set("parallelism", std::int64_t{spec.parallelism});
        rec.set("ranks", ranks_n);
        rec.set("des_threads", std::int64_t{des_threads});
        json::Value per_rank = json::Value::array();
        for (const double v : rank_eps) per_rank.push_back(json::Value(v));
        rec.set("rank_events_per_s", std::move(per_rank));
        if (speedup > 0.0) rec.set("speedup_vs_serial", speedup);
        rec.set("events", static_cast<std::int64_t>(events));
        rec.set("wall_s", wall_s);
        rec.set("events_per_s", events_per_s);
        rec.set("tasks", total_tasks);
        rec.set("sim_tasks_per_s", sim_tasks_per_s);
        rec.set("makespan_s", last_makespan);
        rec.set("dag_build_s", dag_build_s);
        b.report_raw(std::move(rec));

        std::string rank_col = "-";
        if (ranks_n > 1) {
          const auto [mn, mx] =
              std::minmax_element(rank_eps.begin(), rank_eps.end());
          rank_col = fmt_double(*mn, 0) + ".." + fmt_double(*mx, 0);
        }
        table.row()
            .add(label)
            .add(policy_name(policy))
            .add(static_cast<double>(events), 0)
            .add(wall_s, 4)
            .add(events_per_s, 0)
            .add(sim_tasks_per_s, 0)
            .add(last_makespan, 6)
            .add(rank_col)
            .add(speedup > 0.0 ? fmt_double(speedup, 2) + "x"
                               : std::string("-"))
            .add(dag_build_s, 4);
       }
       }
       }
      }
    }
  }
  table.print(std::cout);

  // --- baseline gate --------------------------------------------------------
  if (update_baseline) {
    json::Value cells_json = json::Value::object();
    try {
      const json::Value old = json::parse_file(baseline_path);
      if (const json::Value* oc = old.find("cells"); oc && oc->is_object())
        for (const auto& [label, v] : oc->members()) cells_json.set(label, v);
    } catch (const json::Error&) {
      // No (readable) previous baseline: start fresh.
    }
    for (const Cell& c : cells) cells_json.set(c.label, c.events_per_s);

    json::Value doc = json::Value::object();
    doc.set("schema_version", kResultSchemaVersion);
    doc.set("bench", "sim_throughput_baseline");
    doc.set("note", "events/s per cell; values are deliberately conservative "
                    "(~1/3 of the dev-box measurement) so the >25% gate "
                    "trips on structural regressions, not machine-class "
                    "variance. Refresh with --update-baseline on the machine "
                    "class that enforces the gate.");
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
        if (c.events_per_s < floor) {
          std::cerr << "REGRESSION " << c.label << ": "
                    << fmt_double(c.events_per_s, 0) << " events/s < "
                    << fmt_double(floor, 0) << " (baseline "
                    << fmt_double(ref->as_number(), 0) << " - "
                    << tolerance * 100 << "%)\n";
          ++regressions;
        } else {
          std::cout << "ok " << c.label << ": " << fmt_double(c.events_per_s, 0)
                    << " events/s (baseline " << fmt_double(ref->as_number(), 0)
                    << ")\n";
        }
      }
    } catch (const json::Error& e) {
      std::cerr << "error: cannot read baseline: " << e.what() << "\n";
      return 2;
    }
    if (regressions > 0) {
      std::cerr << regressions << " cell(s) regressed beyond "
                << tolerance * 100
                << "% — investigate or refresh with --update-baseline\n";
      const int rc = b.finish();
      return rc != 0 ? rc : 1;
    }
  }

  return b.finish();
}
