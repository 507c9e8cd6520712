// Job-stream bench: the executor as a concurrent job service.
//
// Submits --jobs=N independent synthetic-DAG jobs to ONE executor (shared
// workers, shared learned PTT) and reports per-job latency percentiles
// (p50/p95/p99) per Table-1 policy, under any --scenario= from the catalog.
// This is the job-stream regime the related scheduling literature evaluates
// (many applications sharing a runtime).
//
// Two driving modes:
//   open loop (default; --arrival=poisson:<rate>|fixed:<gap>, default
//     poisson at ~80% of the measured clean-run service rate):
//     arrivals follow the process regardless of completions. On the sim
//     backend the whole arrival trace is submitted up-front as virtual-time
//     offsets and the stream replays bit-identically from the seed; on rt
//     the driver paces submissions in wall time.
//   closed loop (--inflight=K): K jobs are kept in flight; each completion
//     triggers the next submission — the classic throughput-oriented
//     driver.
//
// Multi-tenant regime (--tenants=N, the scheduler-as-a-service driver):
// jobs are split across N weighted sessions (--weights=, deterministic
// smooth weighted round-robin assignment so every tenant's arrival share
// matches its entitlement), released by the service layer's deficit-
// round-robin scheduler under --tenant-inflight/--service-inflight bounds.
// Reported per tenant: sojourn (admission -> completion, i.e. DRR queueing
// + makespan) p50/p95/p99 and the released-task share over the contended
// window (up to the earliest tenant's last release — beyond it that tenant
// has no backlog and shares are arrival-limited, not scheduler-limited).
// Fairness = Jain index over weight-normalised shares + max relative share
// error, gated (bench/support.hpp Gate) against --baseline=PATH: "*/jain"
// fails below 0.75 x its reference, "*/share_err" above 1.25 x its
// reference + 0.02. Exit 0 pass, 1 a cell failed, 2 the baseline is
// unreadable or matches no cell (a single-tenant stream has none).
//
// Per-job latency = release -> completion (RunResult::makespan_s): on the
// open loop it includes queueing behind earlier jobs, which is the point.

#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "../bench/support.hpp"
#include "util/time.hpp"

using namespace das;
using namespace das::bench;

namespace {

struct StreamResult {
  std::vector<RunResult> jobs;
  /// The arrival process actually driven (the default open loop derives its
  /// Poisson rate from a calibration run, so the flag alone can't tell).
  cli::Arrival effective{};
  std::vector<TenantCounters> counters;  ///< per tenant (multi-tenant runs)
};

// One job = one small fork-join synthetic DAG; jobs differ only in their
// arrival instants, so per-job latency differences isolate queueing and
// scheduling, not workload variance.
workloads::SyntheticDagSpec job_spec(const Bench& b) {
  workloads::SyntheticDagSpec spec =
      workloads::paper_matmul_spec(b.ids.matmul, /*parallelism=*/4, b.scale);
  // Keep a single job well under a second of virtual time so an 8..64-job
  // stream stays interactive on both backends.
  spec.total_tasks = std::max(20, spec.total_tasks / 8);
  return spec;
}

cli::Arrival effective_arrival(const Bench& b, double service_estimate_s) {
  if (b.arrival) return *b.arrival;
  // Default: Poisson at ~80% utilisation of the measured service rate.
  cli::Arrival a;
  a.kind = cli::Arrival::Kind::kPoisson;
  a.rate_hz = 0.8 / std::max(service_estimate_s, 1e-9);
  return a;
}

/// Inter-arrival gaps for the open loop, drawn once per policy from the
/// bench seed so sim reruns replay the identical trace.
std::vector<double> make_gaps(const Bench& b, const cli::Arrival& a) {
  Xoshiro256 rng(b.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<double> gaps;
  gaps.reserve(static_cast<std::size_t>(b.jobs));
  for (int j = 0; j < b.jobs; ++j) {
    if (a.kind == cli::Arrival::Kind::kFixed) {
      gaps.push_back(a.gap_s);
    } else {
      // Exponential inter-arrival via inverse CDF on the deterministic RNG.
      const double u = rng.uniform();
      gaps.push_back(-std::log(1.0 - u) / a.rate_hz);
    }
  }
  return gaps;
}

/// Deterministic smooth weighted round-robin: job j goes to the tenant with
/// the highest accumulated credit, which then pays the total weight back.
/// Every tenant's arrival share converges on weight/Σweights, so under
/// saturation each stays backlogged through the contended window and the
/// measured release shares isolate the DRR scheduler, not the arrival mix.
std::vector<int> make_tenant_assignment(const Bench& b) {
  std::vector<int> owner(static_cast<std::size_t>(b.jobs), 0);
  if (b.tenants <= 1) return owner;
  double total = 0.0;
  for (int t = 0; t < b.tenants; ++t) total += b.tenant_weight(t);
  std::vector<double> credit(static_cast<std::size_t>(b.tenants), 0.0);
  for (int j = 0; j < b.jobs; ++j) {
    int best = 0;
    for (int t = 0; t < b.tenants; ++t) {
      credit[static_cast<std::size_t>(t)] += b.tenant_weight(t);
      if (credit[static_cast<std::size_t>(t)] >
          credit[static_cast<std::size_t>(best)])
        best = t;
    }
    credit[static_cast<std::size_t>(best)] -= total;
    owner[static_cast<std::size_t>(j)] = best;
  }
  return owner;
}

StreamResult run_stream(Bench& b, Policy policy,
                        const SpeedScenario* scenario) {
  ExecutorConfig cfg = b.make_config();
  cfg.service.max_service_inflight = b.service_inflight;
  auto exec = b.make(policy, scenario, cfg);
  const workloads::SyntheticDagSpec spec = job_spec(b);

  // Weighted sessions for the multi-tenant regime. A 0 budget means
  // nothing is rejected by default; --queue-tasks arms admission.
  std::vector<std::unique_ptr<Session>> sessions;
  for (int t = 0; t < b.tenants && b.tenants > 1; ++t) {
    TenantConfig tc;
    tc.name = "tenant" + std::to_string(t);
    tc.weight = b.tenant_weight(t);
    tc.max_in_flight = b.tenant_inflight;
    tc.max_queued_tasks = b.queue_tasks;
    sessions.push_back(exec->open_session(tc));
  }
  const std::vector<int> owner = make_tenant_assignment(b);
  const auto submit = [&](const Dag& dag, int j, const SubmitOptions& opts) {
    if (sessions.empty()) return exec->submit(dag, opts);
    const auto t = static_cast<std::size_t>(owner[static_cast<std::size_t>(j)]);
    return sessions[t]->submit(dag, opts);
  };

  // Calibration run (not measured): trains the PTT a little and yields the
  // service-time estimate the default arrival rate derives from.
  const Dag warmup = workloads::make_synthetic_dag(spec);
  const double service_estimate_s = exec->run(warmup).makespan_s;
  exec->reset_stats();  // the measured stream starts from zeroed counters

  // DAGs must outlive their jobs: build the whole stream up-front.
  std::vector<Dag> dags;
  dags.reserve(static_cast<std::size_t>(b.jobs));
  for (int j = 0; j < b.jobs; ++j)
    dags.push_back(workloads::make_synthetic_dag(spec));

  const cli::Arrival eff = effective_arrival(b, service_estimate_s);
  StreamResult out;
  out.effective = eff;
  if (b.inflight > 0) {
    // Closed loop: keep K jobs in flight; completions trigger submissions.
    std::vector<JobId> window;
    int next = 0;
    while (next < b.jobs && static_cast<int>(window.size()) < b.inflight) {
      window.push_back(submit(dags[static_cast<std::size_t>(next)], next, {}));
      ++next;
    }
    std::size_t head = 0;
    while (head < window.size()) {
      out.jobs.push_back(exec->wait(window[head++]));
      if (next < b.jobs) {
        window.push_back(
            submit(dags[static_cast<std::size_t>(next)], next, {}));
        ++next;
      }
    }
  } else {
    const std::vector<double> gaps = make_gaps(b, eff);
    if (b.backend == Backend::kSim) {
      // Open loop on the DES: the full arrival trace goes in as virtual-time
      // offsets; the interleave is a pure function of (seed, trace).
      double offset = 0.0;
      std::vector<JobId> ids;
      for (int j = 0; j < b.jobs; ++j) {
        offset += gaps[static_cast<std::size_t>(j)];
        SubmitOptions opts;
        opts.arrival_offset_s = offset;
        ids.push_back(submit(dags[static_cast<std::size_t>(j)], j, opts));
      }
      for (JobId id : ids) out.jobs.push_back(exec->wait(id));
    } else {
      // Open loop on the real runtime: pace arrivals in wall time (sleep,
      // not busy-wait — the submitter must not steal cycles from workers).
      std::vector<JobId> ids;
      for (int j = 0; j < b.jobs; ++j) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            s_to_ns(gaps[static_cast<std::size_t>(j)])));
        ids.push_back(submit(dags[static_cast<std::size_t>(j)], j, {}));
      }
      for (JobId id : ids) out.jobs.push_back(exec->wait(id));
    }
  }
  for (const auto& s : sessions) out.counters.push_back(s->counters());
  return out;
}

/// Per-tenant aggregation of one multi-tenant stream.
struct TenantAgg {
  std::string name;
  double weight = 1.0;
  std::vector<double> sojourn_s;  ///< admission -> completion, non-rejected
  std::int64_t jobs = 0;
  std::int64_t rejected = 0;
  std::int64_t window_tasks = 0;  ///< tasks released inside the window
  double last_release_s = 0.0;
  double share = 0.0;      ///< window_tasks / Σ window_tasks
  double want = 0.0;       ///< weight / Σ weights
  double share_err = 0.0;  ///< |share - want| / want
};

struct Fairness {
  std::vector<TenantAgg> tenants;
  double jain = 0.0;
  double max_share_err = 0.0;
  double window_s = 0.0;
};

Fairness fairness_of(const Bench& b, const StreamResult& r) {
  Fairness f;
  f.tenants.resize(static_cast<std::size_t>(b.tenants));
  double total_weight = 0.0;
  for (int t = 0; t < b.tenants; ++t) total_weight += b.tenant_weight(t);
  for (int t = 0; t < b.tenants; ++t) {
    TenantAgg& a = f.tenants[static_cast<std::size_t>(t)];
    a.name = "tenant" + std::to_string(t);
    a.weight = b.tenant_weight(t);
    a.want = a.weight / total_weight;
  }
  const auto agg_of = [&](const RunResult& j) -> TenantAgg* {
    for (TenantAgg& a : f.tenants)
      if (a.name == j.tenant) return &a;
    return nullptr;
  };
  // The contended window: [0, earliest tenant's last release]. Past it that
  // tenant has nothing queued, so capacity shares stop being the
  // scheduler's decision.
  for (const RunResult& j : r.jobs) {
    TenantAgg* a = agg_of(j);
    if (a == nullptr) continue;
    ++a->jobs;
    if (!j.ok()) {
      ++a->rejected;
      continue;
    }
    a->sojourn_s.push_back(j.queue_s + j.makespan_s);
    a->last_release_s = std::max(a->last_release_s, j.arrival_s + j.queue_s);
  }
  f.window_s = f.tenants.front().last_release_s;
  for (const TenantAgg& a : f.tenants)
    f.window_s = std::min(f.window_s, a.last_release_s);
  for (const RunResult& j : r.jobs) {
    if (!j.ok()) continue;
    TenantAgg* a = agg_of(j);
    if (a != nullptr && j.arrival_s + j.queue_s <= f.window_s)
      a->window_tasks += j.tasks;
  }
  std::int64_t window_total = 0;
  for (const TenantAgg& a : f.tenants) window_total += a.window_tasks;
  double sum_x = 0.0, sum_x2 = 0.0;
  for (TenantAgg& a : f.tenants) {
    a.share = window_total > 0 ? static_cast<double>(a.window_tasks) /
                                     static_cast<double>(window_total)
                               : 0.0;
    a.share_err = std::abs(a.share - a.want) / a.want;
    f.max_share_err = std::max(f.max_share_err, a.share_err);
    const double x = static_cast<double>(a.window_tasks) / a.weight;
    sum_x += x;
    sum_x2 += x * x;
  }
  f.jain = sum_x2 > 0.0 ? (sum_x * sum_x) / (static_cast<double>(b.tenants) *
                                             sum_x2)
                        : 0.0;
  return f;
}

json::Value fairness_json(const Fairness& f,
                          const std::vector<TenantCounters>& counters) {
  json::Value tenants = json::Value::array();
  for (std::size_t t = 0; t < f.tenants.size(); ++t) {
    const TenantAgg& a = f.tenants[t];
    json::Value rec = json::Value::object();
    rec.set("tenant", a.name);
    rec.set("weight", a.weight);
    rec.set("jobs", a.jobs);
    rec.set("rejected", a.rejected);
    json::Value lat = json::Value::object();
    lat.set("p50", percentile(a.sojourn_s, 0.50));
    lat.set("p95", percentile(a.sojourn_s, 0.95));
    lat.set("p99", percentile(a.sojourn_s, 0.99));
    rec.set("sojourn_s", std::move(lat));
    rec.set("window_tasks", a.window_tasks);
    rec.set("share", a.share);
    rec.set("want", a.want);
    rec.set("share_err", a.share_err);
    if (t < counters.size()) {
      const TenantCounters& c = counters[t];
      rec.set("submitted", c.submitted);
      rec.set("released", c.released);
      rec.set("completed", c.completed);
    }
    tenants.push_back(std::move(rec));
  }
  json::Value fair = json::Value::object();
  fair.set("jain", f.jain);
  fair.set("max_share_err", f.max_share_err);
  fair.set("window_s", f.window_s);
  json::Value extra = json::Value::object();
  extra.set("tenants", std::move(tenants));
  extra.set("fairness", std::move(fair));
  return extra;
}

}  // namespace

int main(int argc, char** argv) {
  Bench b(argc, argv, "job_stream",
          {.job_stream = true,
           .gate_note =
               "multi-tenant fairness per cell: */jain must stay within 25% "
               "below its reference (floor), */share_err within 25% above "
               "(ceiling, +0.02 absolute slack). Sim cells are deterministic "
               "from the seed; refresh with --update-baseline after "
               "intentional scheduler changes."});
  if (!b.flags.has("scale") && b.backend == Backend::kRt) b.scale = 0.01;
  if (!b.flags.has("jobs")) b.jobs = b.tenants > 1 ? 32 * b.tenants : 16;
  print_backend(b);
  std::cout << "jobs " << b.jobs
            << (b.inflight > 0
                    ? "  closed loop, inflight " + std::to_string(b.inflight)
                    : std::string("  open loop"));
  if (b.tenants > 1) {
    std::cout << "  tenants " << b.tenants << " (weights";
    for (int t = 0; t < b.tenants; ++t)
      std::cout << " " << fmt_double(b.tenant_weight(t), 2);
    std::cout << ", tenant-inflight " << b.tenant_inflight
              << ", service-inflight " << b.service_inflight << ")";
  }
  std::cout << "\n";

  const SpeedScenario scenario =
      b.make_scenario(b.topo, [](SpeedScenario&) { /* clean by default */ });

  print_title("Job stream: per-job latency [s] by scheduler");
  TextTable t({"scheduler", "p50", "p95", "p99", "mean", "max", "stream [s]"});
  TextTable ft({"scheduler", "tenant", "w", "jobs", "rej", "p50", "p95", "p99",
                "share", "want", "err"});
  bool any_tenant_rows = false;
  for (Policy p : b.policies()) {
    const StreamResult r = run_stream(b, p, &scenario);
    std::vector<double> lat;
    double sum = 0.0, max = 0.0, last_finish = 0.0;
    for (const RunResult& j : r.jobs) {
      if (!j.ok()) continue;
      lat.push_back(j.makespan_s);
      sum += j.makespan_s;
      max = std::max(max, j.makespan_s);
      last_finish = std::max(last_finish, j.arrival_s + j.makespan_s);
    }
    const double first_arrival = r.jobs.front().arrival_s;
    t.row()
        .add(policy_name(p))
        .add(percentile(lat, 0.50), 4)
        .add(percentile(lat, 0.95), 4)
        .add(percentile(lat, 0.99), 4)
        .add(sum / static_cast<double>(lat.size()), 4)
        .add(max, 4)
        .add(last_finish - first_arrival, 4);
    json::Value extra = json::Value::object();
    if (b.tenants > 1) {
      const Fairness f = fairness_of(b, r);
      any_tenant_rows = true;
      for (const TenantAgg& a : f.tenants)
        ft.row()
            .add(policy_name(p))
            .add(a.name)
            .add(a.weight, 1)
            .add(static_cast<double>(a.jobs), 0)
            .add(static_cast<double>(a.rejected), 0)
            .add(percentile(a.sojourn_s, 0.50), 4)
            .add(percentile(a.sojourn_s, 0.95), 4)
            .add(percentile(a.sojourn_s, 0.99), 4)
            .add(a.share, 3)
            .add(a.want, 3)
            .add(a.share_err, 3);
      std::cout << policy_name(p) << ": jain "
                << fmt_double(f.jain, 4) << ", max share err "
                << fmt_double(f.max_share_err, 4) << " over window "
                << fmt_double(f.window_s, 4) << " s\n";
      const std::string label = std::string("js/") + policy_name(p) + "/" +
                                b.scenario_name() +
                                "/t=" + std::to_string(b.tenants) +
                                "/jobs=" + std::to_string(b.jobs);
      b.gate.check(Gate::kFloor, label + "/jain", f.jain);
      b.gate.check(Gate::kCeiling, label + "/share_err", f.max_share_err);
      extra = fairness_json(f, r.counters);
    }
    b.report_job_stream("job stream", r.jobs, r.effective, std::move(extra));
  }
  t.print(std::cout);
  if (any_tenant_rows) {
    print_title("Multi-tenant fairness: sojourn [s] and released-task shares");
    ft.print(std::cout);
  }

  return b.finish();
}
