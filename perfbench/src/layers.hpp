#pragma once
// Layer probes shared by the workloads, each timed from outside:
//   * direct sim::SimEngine runs of a workload's DAGs — the `sim` layer
//     (events_processed, wall time per event, utilisation) and the
//     reference the facade's virtual results are checked against;
//   * the net wire codec (encode_dag / decode_dag) on the workload's DAGs.

#include <cstdint>
#include <vector>

#include "core/dag.hpp"
#include "core/policy.hpp"
#include "harness.hpp"
#include "sim/engine.hpp"

namespace perfbench {

/// One engine run: a fresh SimEngine over `ranks` running `dag` once.
struct SimCase {
  std::vector<das::sim::RankSpec> ranks;
  das::Policy policy = das::Policy::kRws;
  const das::Dag* dag = nullptr;
};

/// Totals over a list of cases.
struct SimTotals {
  double vmakespan_s = 0.0;  ///< summed virtual makespan
  std::uint64_t events = 0;
  std::int64_t tasks = 0;
  double wall_s = 0.0;        ///< host seconds inside SimEngine::run
  double busy_s = 0.0;        ///< summed core busy time (virtual)
  double capacity_s = 0.0;    ///< summed makespan x cores (virtual)
  double rank_imbalance = 1.0;  ///< max over cases of max/mean rank events

  SimTotals& operator+=(const SimTotals& o);
};

/// Runs every case with `base` options and `des_threads`, each under a
/// "sim.run" span.
SimTotals run_sim_cases(const std::vector<SimCase>& cases,
                        const das::TaskTypeRegistry& registry,
                        das::sim::SimOptions base, int des_threads);

/// Records the sim layer's per-layer values from a run at the workload's
/// thread count (`threaded`) and the same cases with des_threads = 1.
void record_sim_layer(Raw& raw, const SimTotals& threaded,
                      const SimTotals& serial);

/// Encodes and decodes every DAG of `dags` `reps` times under "net.encode_dag"
/// / "net.decode_dag" spans; samples the per-set encode and decode times,
/// records the wire size, and checks that each decoded DAG has the
/// original's node and edge counts.
void record_codec_layer(Raw& raw, const std::vector<const das::Dag*>& dags,
                        int reps);

}  // namespace perfbench
