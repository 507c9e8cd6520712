// Reproduces the paper's Figure 10: distributed 2D Heat on 4 dual-socket
// Haswell nodes (80 cores), with the interfering matmul kernel occupying 5
// cores of node 0's socket 0. Boundary-exchange (MPI-analogue) tasks are
// high priority; band sweeps are moldable low-priority tasks. Runs through
// the multi-rank das::make_executor overload; this experiment is DES-only
// (the real-thread runtime is single-domain), so --backend=rt falls back to
// sim with a note.
//
// Paper reference points: RWS 250 -> RWSM-C ~376 -> DA ~380 -> DAM-P ~430 ->
// DAM-C ~440 tasks/s; i.e. DAM-C +76% over RWS and +17% over RWSM-C, with
// moldability (cache sharing during communication/compute) carrying most of
// the gain. In this substrate the moldability gain reproduces; DA's
// comm-steering-only gain does not separate from RWS (see EXPERIMENTS.md).

#include <iostream>

#include "../bench/support.hpp"
#include "workloads/heat.hpp"

using namespace das;
using namespace das::bench;

int main(int argc, char** argv) {
  Bench b(argc, argv, "fig10_heat_distributed");
  if (b.backend == Backend::kRt) {
    std::cout << "note: the 4-node Heat experiment needs multiple scheduling "
                 "domains — DES-only; running --backend=sim\n";
    b.backend = Backend::kSim;
    // The constructor picked the rt default scale; restore the sim default
    // unless the user asked for a scale explicitly.
    if (!b.flags.has("scale")) b.scale = 1.0;
  }
  print_backend(b);
  workloads::HeatConfig cfg;
  cfg.rows = 2048;
  cfg.cols = 8192;
  cfg.ranks = 4;
  cfg.iterations = std::max(1, static_cast<int>(60 * b.scale));
  cfg.tasks_per_rank = 8;

  const Topology node_topo = Topology::haswell20();
  // Default condition: interference on node 0 only. A --scenario override
  // applies the named condition to EVERY node instead (the spec is built
  // per rank by make_executor). Validate it against the node topology up
  // front so a mismatch exits 2 instead of throwing out of make_executor.
  if (b.scenario_override)
    (void)build_scenario_or_exit(*b.scenario_override, node_topo);
  SpeedScenario perturbed(node_topo);
  perturbed.add_interference(
      InterferenceEvent{.cores = {0, 1, 2, 3, 4}, .cpu_share = 0.5});

  print_title("Fig. 10: distributed 2D Heat, 4 nodes x 20 cores, interference "
              "on 5 cores of node 0 socket 0");
  TextTable t({"scheduler", "throughput [tasks/s]", "vs RWS"});
  double rws_tp = 0.0;
  for (Policy p : b.policies({Policy::kRws, Policy::kRwsmC, Policy::kDa,
                              Policy::kDamC, Policy::kDamP})) {
    Dag dag = workloads::make_heat_sim_dag(cfg, b.ids.heat_compute, b.ids.comm);
    std::vector<sim::RankSpec> ranks(static_cast<std::size_t>(cfg.ranks),
                                     sim::RankSpec{&node_topo, nullptr});
    ExecutorConfig opts = b.make_config();
    if (b.scenario_override) {
      opts.scenario_spec = b.scenario_override;
    } else {
      ranks[0].scenario = &perturbed;
    }
    opts.stats_phases = cfg.iterations;
    auto exec = make_executor(b.backend, ranks, p, b.registry, opts);
    const RunResult r = exec->run(dag);
    b.report("heat 4 nodes", r);
    if (p == Policy::kRws) rws_tp = r.tasks_per_s;
    // "-" when RWS is filtered out: a made-up baseline would read as parity.
    t.row().add(policy_name(p)).add(r.tasks_per_s, 0).add(
        (rws_tp > 0 ? fmt_double(r.tasks_per_s / rws_tp, 2) + "x" : "-"));
  }
  t.print(std::cout);
  return b.finish();
}
