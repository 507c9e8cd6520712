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
// Heat cell (ungated): after the sweep, the Fig. 10 heat DAG of
// bench/fig10_heat_distributed (4 ranks x 20-core Haswell nodes,
// interference on 5 cores of node 0) runs on the DES once per
// --des-threads entry and policy. It prints the median wall time of 9
// engine constructions + runs, the event count and the speedup over the
// serial cell: the windows of this DAG last microseconds, so it is the
// parallel DES's hard case. Its JSON records carry no "ranks" member, so
// the multi-rank speedup checks of CI leave it alone.
//
// Regression gate (the CI cell, bench/support.hpp Gate): a cell fails when
// its events/s falls below 0.75 x its reference in --baseline=PATH. Exit 0
// pass, 1 a cell failed, 2 the baseline is unreadable or matches no cell.
// --update-baseline merge-rewrites PATH from this run instead.
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
//   --update-baseline       merge-rewrite PATH from this run

#include <algorithm>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "../bench/support.hpp"
#include "sim/engine.hpp"
#include "util/time.hpp"
#include "workloads/heat.hpp"

using namespace das;
using namespace das::bench;

namespace {

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
  Bench b(argc, argv, "sim_throughput",
          {.without = {"backend", "scale"},
           .gate_note =
               "events/s per cell; values are deliberately conservative "
               "(~1/3 of the dev-box measurement) so the >25% gate trips on "
               "structural regressions, not machine-class variance. Refresh "
               "with --update-baseline on the machine class that enforces "
               "the gate.",
           .usage = "--cores=N[,N...] --tasks=N[,N...] --jobs=N"
                    " --parallelism=P[,P...]|auto|fanout"
                    " --ranks=N[,N...] --des-threads=N[,N...]|auto"
                    " (sim-only)"});
  const cli::Flags& flags = b.flags;
  const auto cores_sweep = int_list_flag(flags, "cores", "8,64");
  const auto tasks_sweep = int_list_flag(flags, "tasks", "100000");
  const std::int64_t jobs = int_flag(flags, "jobs", 1, 1);
  // Parallelism entries: positive width, 0 = auto (= cores), -1 = fanout
  // (= tasks; one layer, every task a root).
  const auto par_sweep = list_flag(
      flags, "parallelism", "auto,fanout",
      "positive integers, 'auto' or 'fanout'",
      [](const std::string& s) -> std::optional<std::int64_t> {
        if (s == "auto") return 0;
        if (s == "fanout") return -1;
        return positive_int(s);
      });
  const auto ranks_sweep = int_list_flag(flags, "ranks", "1");
  // des-threads entries: positive thread counts, -1 = auto (hardware
  // concurrency; the engine clamps to the rank count either way).
  const auto des_sweep = list_flag(
      flags, "des-threads", "1", "positive integers or 'auto'",
      [](const std::string& s) -> std::optional<int> {
        if (s == "auto") return -1;
        const auto v = to_number<std::int64_t>(s);
        if (v && *v >= 1 && *v <= 4096) return static_cast<int>(*v);
        return std::nullopt;
      });
  const int auto_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

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
        b.gate.check(Gate::kFloor, label, events_per_s);

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

  // The heat cell (see the header comment): no gate check.
  workloads::HeatConfig heat;
  heat.rows = 2048;
  heat.cols = 8192;
  heat.ranks = 4;
  heat.iterations = 60;
  heat.tasks_per_rank = 8;
  const Topology node = Topology::haswell20();
  SpeedScenario perturbed(node);
  perturbed.add_interference(
      InterferenceEvent{.cores = {0, 1, 2, 3, 4}, .cpu_share = 0.5});
  std::vector<sim::RankSpec> heat_ranks(static_cast<std::size_t>(heat.ranks),
                                        sim::RankSpec{&node, nullptr});
  heat_ranks[0].scenario = &perturbed;
  const Stopwatch heat_build;
  const Dag heat_dag =
      workloads::make_heat_sim_dag(heat, b.ids.heat_compute, b.ids.comm);
  const double heat_build_s = heat_build.elapsed_s();
  print_title("Fig. 10 heat DAG on the DES: median wall of 9 constructions + "
              "runs");
  TextTable heat_table({"cell", "policy", "events", "wall[ms]", "x-serial",
                        "vmakespan[s]"});
  for (Policy policy : b.policies({Policy::kRws})) {
    double serial_wall = 0.0;
    for (const int des_req : des_sweep) {
      const int des_threads = des_req < 0 ? auto_threads : des_req;
      sim::SimOptions opts;
      opts.seed = b.seed;
      opts.des_threads = des_threads;
      opts.stats_phases = heat.iterations;
      std::vector<double> walls;
      std::uint64_t events = 0;
      double makespan = 0.0;
      for (int rep = 0; rep < 9; ++rep) {
        Stopwatch wall;
        sim::SimEngine eng(heat_ranks, policy, b.registry, opts);
        makespan = eng.run(heat_dag);
        walls.push_back(wall.elapsed_s());
        events = eng.events_processed();
      }
      std::sort(walls.begin(), walls.end());
      const double wall_s = walls[walls.size() / 2];
      const std::string des_label =
          des_req < 0 ? std::string("auto") : std::to_string(des_req);
      if (des_req == 1) serial_wall = wall_s;
      const double speedup =
          des_req != 1 && serial_wall > 0.0 ? serial_wall / wall_s : 0.0;
      const std::string label = std::string("sim/") + policy_name(policy) +
                                "/heat/ranks=4/des=" + des_label;

      json::Value rec = json::Value::object();
      rec.set("label", label);
      rec.set("policy", policy_name(policy));
      rec.set("backend", "sim");
      rec.set("seed", b.seed);
      rec.set("heat_ranks", std::int64_t{heat.ranks});
      rec.set("des_threads", std::int64_t{des_threads});
      rec.set("events", static_cast<std::int64_t>(events));
      rec.set("wall_s", wall_s);
      if (speedup > 0.0) rec.set("speedup_vs_serial", speedup);
      rec.set("makespan_s", makespan);
      rec.set("dag_build_s", heat_build_s);
      b.report_raw(std::move(rec));

      heat_table.row()
          .add(label)
          .add(policy_name(policy))
          .add(static_cast<double>(events), 0)
          .add(wall_s * 1e3, 3)
          .add(speedup > 0.0 ? fmt_double(speedup, 2) + "x"
                             : std::string("-"))
          .add(makespan, 6);
    }
  }
  heat_table.print(std::cout);

  return b.finish();
}
