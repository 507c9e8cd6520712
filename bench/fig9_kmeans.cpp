// Reproduces the paper's Figure 9: K-means clustering on a 16-core Haswell
// (2 sockets x 8 cores), 100 iterations, with a co-running application on
// socket 0 during iterations 20..70. Runs through the das::Executor facade
// (--backend=sim|rt; the engine-agnostic now() clock drives the
// interference-window boundaries on either backend).
//
//   (a) per-iteration execution time for RWS / DAM-C / DAM-P — the dynamic
//       schedulers ride through the interference window, RWS inflates;
//   (b,c) execution-place selection during the interference window — RWS
//       keeps spreading width-1 tasks over the perturbed socket; DAM-P molds
//       onto socket 1 ((C8,4), (C8,8), (C0,8)-style places).
//
// The interference window boundaries are discovered at run time (the paper
// starts the co-runner "a few iterations after the start"): the scenario is
// opened when iteration 20 begins and closed after iteration 70, on the
// executor's clock.

#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "../bench/support.hpp"
#include "workloads/kmeans.hpp"

using namespace das;
using namespace das::bench;

namespace {

constexpr int kIterations = 100;
constexpr int kInterfStart = 20;
constexpr int kInterfEnd = 70;

struct Result {
  std::vector<double> iter_time;
  RunResult last;                  // cumulative stats after the final iteration
  std::unique_ptr<Executor> exec;  // keeps stats alive
};

Result run_policy(Bench& b, const Topology& topo, Policy policy) {
  workloads::KMeansConfig cfg;
  // Virtual points: the DES only needs chunk sizes. Scaled so rt runs
  // (cost-model fallback busy-waits) stay tractable.
  cfg.points = std::max(1'000'000, static_cast<int>(100'000'000 * b.scale));
  cfg.dims = 8;
  cfg.k = 8;
  cfg.chunks = 256;
  // Exactly ONE chunk carries the largest work unit and is marked high
  // priority, as in the paper ("assign the high priority to the task
  // containing the largest work unit").
  cfg.big_chunk_fraction_den = cfg.chunks;
  cfg.big_chunk_weight = 8.0;
  workloads::KMeansSimBuilder km(cfg, b.ids.kmeans_map, b.ids.kmeans_reduce);

  ExecutorConfig opts = b.make_config();
  opts.stats_phases = kIterations;

  // The executor keeps a pointer to the scenario; keep it alive via a static
  // store (one per policy run is fine for a bench binary). A --scenario
  // override replaces the dynamically-opened window with the static spec.
  static std::vector<std::unique_ptr<SpeedScenario>> scenarios;
  scenarios.push_back(std::make_unique<SpeedScenario>(b.make_scenario(
      topo, [](SpeedScenario&) { /* window opens at iteration 20, below */ })));
  SpeedScenario* sc = scenarios.back().get();
  const bool dynamic_window = !b.scenario_override.has_value();

  Result r;
  r.exec = b.make(policy, sc, opts, &topo);

  for (int it = 0; it < kIterations; ++it) {
    if (dynamic_window && it == kInterfStart) {
      // Co-runner lands on all of socket 0 (cores 0..7).
      sc->add_interference(InterferenceEvent{.cores = {0, 1, 2, 3, 4, 5, 6, 7},
                                             .t_start = r.exec->now(),
                                             .cpu_share = 0.5});
    }
    if (dynamic_window && it == kInterfEnd)
      sc->close_open_interference(r.exec->now());
    // --jobs=N: N concurrent clustering tenants submit this iteration's DAG
    // to the shared executor (one worker pool, one learned PTT) and the
    // iteration closes when all of them finish; the recorded per-iteration
    // time is the slowest tenant's latency. N=1 is the paper's figure.
    std::vector<Dag> dags;
    dags.reserve(static_cast<std::size_t>(b.jobs));
    for (int j = 0; j < b.jobs; ++j)
      dags.push_back(km.make_iteration_dag(it));
    for (Dag& dag : dags) r.exec->submit(dag);
    double slowest = 0.0;
    for (RunResult& done : r.exec->drain()) {
      slowest = std::max(slowest, done.makespan_s);
      r.last = std::move(done);
    }
    r.iter_time.push_back(slowest);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // Iterations run lock-step, so of the job-stream flags only --jobs
  // applies; the arrival, closed-loop and tenant flags are unknown here.
  Bench b(argc, argv, "fig9_kmeans", {.usage = "--jobs=N"});
  b.jobs = static_cast<int>(int_flag(b.flags, "jobs", b.jobs, 1));
  print_backend(b);
  if (b.jobs > 1)
    std::cout << "jobs " << b.jobs << " (concurrent clustering tenants per "
              << "iteration; the paper's figure is jobs=1)\n";
  const Topology topo = Topology::haswell16();

  const std::vector<Policy> policies =
      b.policies({Policy::kRws, Policy::kDamC, Policy::kDamP});
  std::map<Policy, Result> results;
  for (Policy p : policies) results[p] = run_policy(b, topo, p);

  print_title("Fig. 9(a): K-means per-iteration time [s] (interference on "
              "socket 0 during iterations 20-70)");
  TextTable t(policy_header("iter", policies));
  for (int it = 0; it < kIterations; it += 2) {
    t.row().add(std::int64_t{it});
    for (Policy p : policies)
      t.add(results[p].iter_time[static_cast<std::size_t>(it)], 3);
  }
  t.print(std::cout);

  auto window_mean = [&](Policy p, int from, int to) {
    double sum = 0.0;
    for (int it = from; it < to; ++it)
      sum += results[p].iter_time[static_cast<std::size_t>(it)];
    return sum / (to - from);
  };
  std::cout << "\nmean iteration time inside the interference window [s]:\n";
  for (Policy p : policies) {
    std::cout << "  " << policy_name(p) << ": "
              << fmt_double(window_mean(p, kInterfStart, kInterfEnd), 3)
              << "  (before window: "
              << fmt_double(window_mean(p, 5, kInterfStart), 3) << ")\n";
    // Per-policy record: the cumulative 100-iteration stats plus the
    // window/baseline means the paper's Fig. 9(a) compares.
    json::Value extra = json::Value::object();
    extra.set("iterations", kIterations);
    extra.set("jobs", std::int64_t{b.jobs});
    extra.set("mean_iter_in_window_s", window_mean(p, kInterfStart, kInterfEnd));
    extra.set("mean_iter_before_window_s", window_mean(p, 5, kInterfStart));
    b.report("k-means 100 iterations", results[p].last, std::move(extra));
  }

  // (b, c): execution-place selection traces. Print the top places by task
  // count inside the window, every 5 iterations.
  for (Policy p : {Policy::kRws, Policy::kDamP}) {
    if (!results.count(p)) continue;
    const ExecutionStats& stats = results[p].exec->stats();
    // Rank places by their in-window counts.
    std::vector<std::pair<std::int64_t, int>> totals;
    for (int pid = 0; pid < topo.num_places(); ++pid) {
      std::int64_t n = 0;
      for (int it = kInterfStart; it < kInterfEnd; ++it)
        n += stats.tasks_at_phase(Priority::kLow, pid, it) +
             stats.tasks_at_phase(Priority::kHigh, pid, it);
      if (n > 0) totals.emplace_back(n, pid);
    }
    std::sort(totals.rbegin(), totals.rend());
    if (totals.size() > 8) totals.resize(8);

    print_title(std::string("Fig. 9(") +
                (p == Policy::kRws ? "b" : "c") + "): tasks per execution "
                "place per iteration — " + policy_name(p));
    std::vector<std::string> header{"iter"};
    for (const auto& [n, pid] : totals) header.push_back(to_string(topo.place_at(pid)));
    TextTable pt(header);
    for (int it = 0; it < kIterations; it += 5) {
      pt.row().add(std::int64_t{it});
      for (const auto& [n, pid] : totals) {
        std::int64_t c = 0;
        for (Priority prio : {Priority::kLow, Priority::kHigh})
          c += stats.tasks_at_phase(prio, pid, it);
        pt.add(c);
      }
    }
    pt.print(std::cout);
  }
  return b.finish();
}
