// Micro-benchmarks (google-benchmark) for the runtime's hot components.
//
// The headline check is the paper's §4.1.1 claim that a GLOBAL search of the
// whole PTT costs "in the order of one microsecond" on the TX2's 10 places —
// BM_PolicyGlobalSearch/10 measures exactly that decision; the larger
// instances show how the cost scales with the number of places (the paper's
// stated scalability concern).
//
// Each cell's comment names the BENCHMARK.json per-layer metric (perfbench
// `--trace 1`) whose per-call cost it isolates, and the workload it shows on.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/cost_expr.hpp"
#include "core/policy.hpp"
#include "core/ptt.hpp"
#include "core/task_type.hpp"
#include "kernels/cost_models.hpp"
#include "kernels/registry.hpp"
#include "platform/speed_model.hpp"
#include "platform/topology.hpp"
#include "rt/wsq.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace das;

Topology topology_with_places(int places) {
  switch (places) {
    case 10: return Topology::tx2();          // 10 places (paper platform)
    case 30: return Topology::haswell16();    // 2 sockets x 15 places
    default: return Topology::haswell_cluster(4);  // 8 sockets x 18 places
  }
}

// sim.ns_per_event on paper-sim: every DAM-C search reads PTT entries.
void BM_PttLookup(benchmark::State& state) {
  const Topology topo = Topology::tx2();
  Ptt ptt(topo);
  for (int pid = 0; pid < topo.num_places(); ++pid) ptt.update(pid, 1e-3);
  int pid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ptt.value(pid));
    pid = (pid + 1) % topo.num_places();
  }
}
BENCHMARK(BM_PttLookup);

// sim.ns_per_event on paper-sim: one PTT update per completed task.
void BM_PttUpdate(benchmark::State& state) {
  const Topology topo = Topology::tx2();
  Ptt ptt(topo);
  for (auto _ : state) {
    ptt.update(3, 1e-3);
  }
}
BENCHMARK(BM_PttUpdate);

// sim.ns_per_event on paper-sim: a high-priority task's DAM-C placement
// (/10 is the TX2 model the workload runs).
void BM_PolicyGlobalSearch(benchmark::State& state) {
  const Topology topo = topology_with_places(static_cast<int>(state.range(0)));
  PttStore store(topo, 1);
  Xoshiro256 rng(1);
  for (int pid = 0; pid < topo.num_places(); ++pid)
    store.table(0).update(pid, 1e-3 * (1.0 + rng.uniform()));
  PolicyEngine eng(Policy::kDamC, topo, &store);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.on_ready(0, Priority::kHigh, 0));
  }
  state.counters["places"] = topo.num_places();
}
BENCHMARK(BM_PolicyGlobalSearch)->Arg(10)->Arg(30)->Arg(144);

// sim.ns_per_event on paper-sim: a low-priority task's DAM-C width search
// at dispatch.
void BM_PolicyLocalSearch(benchmark::State& state) {
  const Topology topo = Topology::tx2();
  PttStore store(topo, 1);
  for (int pid = 0; pid < topo.num_places(); ++pid)
    store.table(0).update(pid, 1e-3 + pid * 1e-5);
  PolicyEngine eng(Policy::kDamC, topo, &store);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.on_execute(0, Priority::kLow, 3));
  }
}
BENCHMARK(BM_PolicyLocalSearch);

// ---- dispatch cost cells ---------------------------------------------------
// Per-call price of the policy's wake-up hook and of the closed-form cost
// evaluation. The engine benches (sim_throughput, overhead_scaling) measure
// the end-to-end effect; these isolate the per-call deltas.

// sim.ns_per_event on paper-sim: every ready task's DAM-C wake-up hook.
void BM_DispatchOnReadyDynamic(benchmark::State& state) {
  const Topology topo = Topology::tx2();
  PttStore store(topo, 1);
  for (int pid = 0; pid < topo.num_places(); ++pid)
    store.table(0).update(pid, 1e-3 + pid * 1e-5);
  PolicyEngine eng(Policy::kDamC, topo, &store);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.on_ready(0, Priority::kLow, 3));
  }
}
BENCHMARK(BM_DispatchOnReadyDynamic);

// sim.ns_per_event on paper-sim: one matmul cost evaluation per
// participation.
void BM_DispatchCostEvalExpr(benchmark::State& state) {
  const Topology topo = Topology::tx2();
  TaskTypeRegistry reg;
  const kernels::PaperKernelIds ids = kernels::register_paper_kernels(reg);
  const TaskTypeInfo& info = reg.info(ids.matmul);
  TaskParams p;
  p.p0 = 64.0;
  CostQuery q;
  q.place = ExecutionPlace{0, 1};
  q.cluster = &topo.cluster_of_core(0);
  q.speed = 1.0;
  q.bw_share = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cost_expr_eval(info.cost, p, q));
  }
}
BENCHMARK(BM_DispatchCostEvalExpr);

// sim.ns_per_event on halo-sim: its empty kernels are kFixed, so each
// participation's cost is this evaluation.
void BM_DispatchCostEvalFixed(benchmark::State& state) {
  TaskTypeRegistry reg;
  const TaskTypeId fixed =
      reg.register_type("fixed", kernels::fixed_cost(1e-6));
  const TaskTypeInfo& info = reg.info(fixed);
  TaskParams p;
  CostQuery q;
  q.place = ExecutionPlace{0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p);
    benchmark::DoNotOptimize(cost_expr_eval(info.cost, p, q));
  }
}
BENCHMARK(BM_DispatchCostEvalFixed);

// exec.run_s on rt-fine: a worker pushes and pops each task it spawns.
void BM_WsDequePushPop(benchmark::State& state) {
  rt::WsDeque<int> q;
  int item = 7;
  for (auto _ : state) {
    q.push_bottom(&item);
    benchmark::DoNotOptimize(q.pop_bottom());
  }
}
BENCHMARK(BM_WsDequePushPop);

// exec.run_s on rt-fine: a thief's steal from a victim's deque.
void BM_WsDequeStealUncontended(benchmark::State& state) {
  rt::WsDeque<int> q;
  std::vector<int> items(1024);
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& i : items) q.push_bottom(&i);
    state.ResumeTiming();
    for (std::size_t i = 0; i < items.size(); ++i)
      benchmark::DoNotOptimize(q.steal_top());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(items.size()));
}
BENCHMARK(BM_WsDequeStealUncontended);

// sim.ns_per_event on paper-sim and halo-sim: one push and one pop per
// queued event.
void BM_EventQueue(benchmark::State& state) {
  sim::EventQueue<int> q;
  Xoshiro256 rng(3);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.push(rng.uniform(), i);
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueue);

// sim.ns_per_event on paper-sim: the dvfs-wave and interference-burst cells
// query a core's speed at each participation start.
void BM_SpeedScenarioQuery(benchmark::State& state) {
  const Topology topo = Topology::tx2();
  SpeedScenario sc(topo);
  sc.add_dvfs(DvfsSchedule{.cluster = 0});
  sc.add_cpu_corunner(0);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc.speed(2, t));
    t += 1e-4;
  }
}
BENCHMARK(BM_SpeedScenarioQuery);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): CI drives every bench with the
// same flag set (--backend/--policy/--scenario/--scale/--seed/--json, see
// bench/support.hpp). The micro benches have no engine, so the first five
// are accepted and ignored; --json=PATH maps onto google-benchmark's native
// JSON reporter so the artifact convention (BENCH_*.json) still holds.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::vector<std::string> storage;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ignored = false;
    for (const char* prefix : {"--backend=", "--policy=", "--scenario=",
                               "--scale=", "--seed="})
      ignored = ignored || arg.rfind(prefix, 0) == 0;
    if (ignored) continue;
    if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      // Bare --json defaults to BENCH_<name>.json like the other benches.
      const std::string path =
          arg == "--json" ? "BENCH_micro_components.json" : arg.substr(7);
      storage.push_back("--benchmark_out=" + path);
      storage.push_back("--benchmark_out_format=json");
      continue;
    }
    args.push_back(argv[i]);
  }
  for (std::string& s : storage) args.push_back(s.data());
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
