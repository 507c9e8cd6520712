// service-net: a closed loop through the net front-end. One net::World of 3
// rank threads: rank 0 serves a sim DAM-C TX2 executor under dvfs-wave
// (serve_executor, global in-flight cap 4, so the weighted DRR release
// decides), ranks 1 and 2 are ServiceClients with weighted sessions (1 and
// 3) that each keep 4 jobs in flight. A job is a 320-task MatMul DAG; its
// latency is client wall time from submit to the return of wait. Each pass
// sets up a fresh world and runs the loop for kRoundS: a long-lived loop
// settles into one of several throughput modes for its lifetime, so many
// short rounds give steadier figures than one long loop.

#include <algorithm>
#include <barrier>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "kernels/registry.hpp"
#include "layers.hpp"
#include "net/service.hpp"
#include "net/world.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"
#include "workloads/synthetic_dag.hpp"

namespace perfbench {
namespace {

constexpr int kClients = 2;
const double kWeights[kClients] = {1.0, 3.0};
constexpr int kInFlight = 4;         // per client
constexpr int kServiceInflight = 4;  // server-wide release cap
constexpr int kReplayJobs = 16;      // per session, local replay
constexpr double kJobScale = 0.01;   // 320 MatMul tasks
constexpr int kParallelism = 4;
constexpr double kRoundS = 0.5;      // closed loop per world
constexpr int kSlicesPerRound = 5;
constexpr double kSliceS = kRoundS / kSlicesPerRound;  // rate window
constexpr int kSetupWorldsPerRound = 20;

/// Executors keep a pointer to their topology: one instance outlives them all.
const das::Topology& tx2() {
  static const das::Topology topo = das::Topology::tx2();
  return topo;
}

std::string tenant_name(int client) {
  const char* const names[kClients] = {"w1", "w3"};  // after the weights
  return names[client];
}

das::ExecutorConfig server_config(std::uint64_t seed) {
  das::ExecutorConfig cfg;
  cfg.seed = seed;
  cfg.scenario_spec = das::scenario::load("dvfs-wave");
  cfg.service.max_service_inflight = kServiceInflight;
  return cfg;
}

/// One client's record of the measured loop (written by its rank thread,
/// read by the main thread after World::run joins).
struct ClientLog {
  std::vector<std::int64_t> done_ns;  // completion instants
  std::vector<double> latency_s;
  std::vector<double> queue_s;        // RunResult::queue_s (engine clock)
  std::vector<double> submit_us;
  std::vector<double> wait_us;
  double open_session_us = 0.0;
  std::int64_t submitted = 0;
  std::int64_t returned = 0;
  std::int64_t bad = 0;  // non-kOk, wrong task count or wrong tenant
};

struct WorldResult {
  double setup_s = 0.0;
  double make_executor_s = 0.0;
  std::int64_t start_ns = 0;  // closed loop start
  std::int64_t end_ns = 0;
  std::vector<ClientLog> logs = std::vector<ClientLog>(kClients);
};

/// Builds the job DAG, a 3-rank world, the server executor and both
/// sessions (that is set-up), then runs the closed loop for `loop_s`.
WorldResult run_world(const Options& opt, Raw& raw, das::TaskTypeRegistry& registry,
                      das::TaskTypeId matmul, double loop_s) {
  WorldResult res;
  const std::int64_t t0 = now_ns();
  const das::workloads::SyntheticDagSpec spec =
      das::workloads::paper_matmul_spec(matmul, kParallelism, kJobScale);
  const das::Dag dag = build_layered_dag(raw, spec.type, 1, spec.total_tasks,
                                         spec.parallelism, 0.0, spec.params);
  const std::uint64_t seed = das::Xoshiro256(opt.seed)();
  das::net::World world(kClients + 1);
  // Set-up ends once both sessions are open.
  std::barrier ready(kClients, [&]() noexcept {
    res.start_ns = now_ns();
    res.setup_s = static_cast<double>(res.start_ns - t0) * 1e-9;
    res.end_ns = res.start_ns + static_cast<std::int64_t>(loop_s * 1e9);
  });

  world.run([&](das::net::Comm& comm) {
    if (comm.rank() == 0) {
      Span span("bench.server");
      std::unique_ptr<das::Executor> exec;
      const std::int64_t m0 = now_ns();
      {
        Span mk("exec.make_executor");
        exec = das::make_executor(das::Backend::kSim, tx2(),
                                  das::Policy::kDamC, registry,
                                  server_config(seed));
      }
      res.make_executor_s = seconds_since(m0);
      Span serve("net.serve_executor");
      das::net::serve_executor(comm, *exec);
      return;
    }
    const int c = comm.rank() - 1;
    ClientLog& log = res.logs[static_cast<std::size_t>(c)];
    Span span("bench.client");
    das::net::ServiceClient client(comm, 0);
    das::TenantConfig tc;
    tc.name = tenant_name(c);
    tc.weight = kWeights[c];
    tc.max_in_flight = kInFlight;
    int session = -1;
    std::int64_t s0 = now_ns();
    {
      Span open("net.open_session");
      session = client.open_session(tc);
    }
    log.open_session_us = seconds_since(s0) * 1e6;
    ready.arrive_and_wait();

    struct InFlight {
      das::JobId id;
      std::int64_t submit_ns;
    };
    std::deque<InFlight> inflight;
    auto submit = [&] {
      const std::int64_t t = now_ns();
      das::JobId id = das::kInvalidJob;
      {
        Span sub("net.submit");
        id = client.submit(dag, {}, session);
      }
      log.submit_us.push_back(seconds_since(t) * 1e6);
      inflight.push_back(InFlight{id, t});
      ++log.submitted;
    };
    auto wait_oldest = [&](bool record) {
      const InFlight job = inflight.front();
      inflight.pop_front();
      const std::int64_t t = now_ns();
      das::net::WireRunResult r;
      {
        Span w("net.wait");
        r = client.wait(job.id);
      }
      const std::int64_t done = now_ns();
      ++log.returned;
      if (!r.ok() || r.tasks != dag.num_nodes() || r.tenant != tc.name)
        ++log.bad;
      if (!record) return;
      log.wait_us.push_back(static_cast<double>(done - t) * 1e-3);
      log.done_ns.push_back(done);
      log.latency_s.push_back(static_cast<double>(done - job.submit_ns) * 1e-9);
      log.queue_s.push_back(r.queue_s);
    };

    if (res.end_ns > res.start_ns) {
      for (int i = 0; i < kInFlight; ++i) submit();
      while (now_ns() < res.end_ns) {
        wait_oldest(true);
        submit();
      }
    }
    while (!inflight.empty()) wait_oldest(false);
    client.bye();
  });
  return res;
}

}  // namespace

void run_service_net(const Options& opt, Raw& raw) {
  das::TaskTypeRegistry registry;
  const das::TaskTypeId matmul =
      das::kernels::register_paper_kernels(registry).matmul;

  const std::int64_t task_count = das::workloads::paper_matmul_spec(
      matmul, kParallelism, kJobScale).total_tasks;
  std::int64_t bad = 0, lost = 0;
  auto round = [&](double loop_s) {
    Span span(loop_s > 0.0 ? "bench.pass" : "bench.setup");
    const std::string prefix = phase_prefix();
    const WorldResult w = run_world(opt, raw, registry, matmul, loop_s);
    raw.sample("setup_s", "s", w.setup_s);
    raw.sample("exec.make_executor_s", "s", w.make_executor_s);
    // Rates per fixed window: completions between the window's first and
    // last completion instants, over the time between them.
    std::vector<std::int64_t> done;
    for (const ClientLog& log : w.logs)
      done.insert(done.end(), log.done_ns.begin(), log.done_ns.end());
    std::sort(done.begin(), done.end());
    const auto slice = static_cast<std::int64_t>(kSliceS * 1e9);
    for (std::int64_t a = w.start_ns; a + slice <= w.end_ns; a += slice) {
      const auto first = std::lower_bound(done.begin(), done.end(), a);
      const auto last = std::lower_bound(first, done.end(), a + slice);
      if (last - first < 2) continue;
      const double jobs = static_cast<double>(last - first - 1);
      const double span_s = static_cast<double>(*(last - 1) - *first) * 1e-9;
      raw.sample(prefix + "jobs_per_s", "1/s", jobs / span_s);
      raw.sample(prefix + "tasks_per_s", "1/s",
                 jobs * static_cast<double>(task_count) / span_s);
    }
    for (const ClientLog& log : w.logs) {
      for (const double v : log.latency_s) raw.sample(prefix + "job_latency_s", "s", v);
      for (const double v : log.queue_s) raw.sample("exec.queue_s", "s", v);
      for (const double v : log.submit_us) raw.sample("net.submit_call_us", "us", v);
      for (const double v : log.wait_us) raw.sample("net.wait_call_us", "us", v);
      raw.sample("net.open_session_us", "us", log.open_session_us);
      raw.ops(log.submitted, log.bad + (log.submitted - log.returned));
      bad += log.bad;
      lost += log.submitted - log.returned;
    }
  };
  // Set-up-only worlds, then rounds of a measured world plus set-up-only
  // worlds, so set-up is sampled across the whole run. A set-up of ~0.1 ms
  // is mostly thread start and wake-up, whose times spread widely, so each
  // round samples it many times.
  for (int rep = 0; rep < kSetupReps; ++rep) round(0.0);
  measured_phase(opt, kMinRateSamples / kSlicesPerRound + 1, [&] {
    round(kRoundS);
    for (int rep = 0; rep < kSetupWorldsPerRound; ++rep) round(0.0);
  });
  report_rate_p90(raw);
  raw.percentiles("jobs_per_s", {{90, "jobs_per_s"}});
  raw.percentiles("job_latency_s", {{50, "job_latency_p50_s"},
                                    {99, "job_latency_p99_s"}});
  raw.percentiles("exec.queue_s", {{50, "exec.queue_s.p50"}, {99, "exec.queue_s.p99"}});
  raw.percentiles("net.submit_call_us",
                  {{50, "net.submit_call_us.p50"}, {99, "net.submit_call_us.p99"}});
  raw.percentiles("net.wait_call_us",
                  {{50, "net.wait_call_us.p50"}, {99, "net.wait_call_us.p99"}});
  raw.check("tenants_get_own_jobs", bad == 0 && lost == 0,
            std::to_string(bad) + " wrong, " + std::to_string(lost) + " missing");

  // Deterministic local replay: one bare run, then a burst of jobs per
  // weighted session. Its summed virtual makespan repeats exactly, and its
  // release order shows the weighted DRR share while both tenants queue.
  const das::workloads::SyntheticDagSpec spec =
      das::workloads::paper_matmul_spec(matmul, kParallelism, kJobScale);
  const das::Dag dag = build_layered_dag(raw, spec.type, 1, spec.total_tasks,
                                         spec.parallelism, 0.0, spec.params);
  das::Xoshiro256 rng(opt.seed);
  const std::uint64_t seed = rng();
  auto exec = das::make_executor(das::Backend::kSim, tx2(),
                                 das::Policy::kDamC, registry, server_config(seed));
  double vsum = 0.0;
  bool replay_ok = true;
  {
    const std::int64_t r0 = now_ns();
    das::RunResult r;
    {
      Span run_span("exec.run");
      r = exec->run(dag);
    }
    raw.sample("exec.run_s", "s", seconds_since(r0));
    replay_ok = r.ok() && r.tasks == dag.num_nodes();
    vsum += r.makespan_s;
  }
  std::vector<std::unique_ptr<das::Session>> sessions;
  for (int c = 0; c < kClients; ++c) {
    das::TenantConfig tc;
    tc.name = tenant_name(c);
    tc.weight = kWeights[c];
    tc.max_in_flight = kInFlight;
    sessions.push_back(exec->open_session(tc));
  }
  // The seed draws the order the sessions' jobs are submitted in.
  std::vector<int> order;
  for (int c = 0; c < kClients; ++c) order.insert(order.end(), kReplayJobs, c);
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[rng.below(i + 1)]);
  for (const int c : order) sessions[static_cast<std::size_t>(c)]->submit(dag);
  std::vector<std::pair<double, int>> releases;  // (engine release, client)
  std::vector<double> last_release(kClients, 0.0);
  for (int c = 0; c < kClients; ++c)
    for (const das::RunResult& r : sessions[static_cast<std::size_t>(c)]->drain()) {
      replay_ok = replay_ok && r.ok() && r.tasks == dag.num_nodes() &&
                  r.tenant == tenant_name(c);
      vsum += r.makespan_s;
      releases.emplace_back(r.arrival_s + r.queue_s, c);
      auto& last = last_release[static_cast<std::size_t>(c)];
      last = std::max(last, r.arrival_s + r.queue_s);
    }
  raw.check("local_replay", replay_ok);
  // Share of released jobs (equal sizes) per tenant up to the first
  // tenant's last release, against the weight share.
  const double contended_until =
      *std::min_element(last_release.begin(), last_release.end());
  std::vector<double> released(kClients, 0.0);
  double total = 0.0, wsum = 0.0, max_err = 0.0;
  for (const auto& [t, c] : releases)
    if (t <= contended_until) {
      released[static_cast<std::size_t>(c)] += 1.0;
      total += 1.0;
    }
  for (const double w : kWeights) wsum += w;
  for (int c = 0; c < kClients; ++c)
    max_err = std::max(max_err, std::abs(released[static_cast<std::size_t>(c)] / total -
                                         kWeights[c] / wsum));
  raw.value("exec.drr.max_share_err", "ratio", max_err);
  raw.value("virtual_makespan_s", "s", vsum);

  if (opt.trace) {
    const das::Topology& topo = tx2();
    const das::SpeedScenario wave =
        das::scenario::build(das::scenario::load("dvfs-wave"), topo);
    const std::vector<SimCase> cases{
        SimCase{{das::sim::RankSpec{&topo, &wave}}, das::Policy::kDamC, &dag}};
    das::sim::SimOptions o;
    o.seed = seed;
    const SimTotals serial = run_sim_cases(cases, registry, o, 1);
    const SimTotals threaded =
        run_sim_cases(cases, registry, o, std::min(4, opt.nproc));
    record_sim_layer(raw, threaded, serial);
    record_codec_layer(raw, {&dag}, 20);
  }
}

}  // namespace perfbench
