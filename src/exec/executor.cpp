#include "exec/executor.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <thread>

#include "rt/runtime.hpp"
#include "util/assert.hpp"

namespace das {

namespace {

std::string lower(const std::string& s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kSim: return "sim";
    case Backend::kRt: return "rt";
  }
  return "?";
}

const std::vector<Backend>& all_backends() {
  static const std::vector<Backend> kAll = {Backend::kSim, Backend::kRt};
  return kAll;
}

std::optional<Backend> parse_backend(const std::string& name) {
  const std::string n = lower(name);
  if (n == "sim" || n == "des") return Backend::kSim;
  if (n == "rt" || n == "real") return Backend::kRt;
  return std::nullopt;
}

std::optional<Policy> parse_policy(const std::string& name) {
  const std::string n = lower(name);
  for (Policy p : all_known_policies())
    if (n == lower(policy_name(p))) return p;
  return std::nullopt;
}

Backend backend_flag(const cli::Flags& flags, Backend def) {
  if (!flags.has("backend")) return def;
  const auto b = parse_backend(flags.get("backend"));
  if (!b) cli::die("unknown backend '" + flags.get("backend") + "' (sim|rt)");
  return *b;
}

Policy policy_flag(const cli::Flags& flags, Policy def) {
  if (!flags.has("policy")) return def;
  const auto p = parse_policy(flags.get("policy"));
  if (!p) cli::die("unknown policy '" + flags.get("policy") + "'");
  return *p;
}

std::optional<scenario::ScenarioSpec> scenario_flag(const cli::Flags& flags) {
  if (!flags.has("scenario")) return std::nullopt;
  try {
    return scenario::load(flags.get("scenario"));
  } catch (const scenario::ScenarioError& e) {
    cli::die(std::string("--scenario: ") + e.what());
  }
}

SpeedScenario build_scenario_or_exit(const scenario::ScenarioSpec& spec,
                                     const Topology& topo) {
  try {
    return scenario::build(spec, topo);
  } catch (const scenario::ScenarioError& e) {
    cli::die(std::string("--scenario: ") + e.what());
  }
}

// Executor's service-layer methods (submit/wait/drain/sessions) live in
// exec/service.cpp; this file keeps the CLI helpers and the two engine
// adapters.

namespace {

rt::RtOptions to_rt_options(const ExecutorConfig& cfg, FaultPlan faults) {
  rt::RtOptions o;
  o.seed = cfg.seed;
  o.scenario = cfg.scenario;
  o.policy_options = cfg.policy_options;
  o.ptt_ratio = cfg.ptt_ratio;
  o.stats_phases = cfg.stats_phases;
  o.faults = std::move(faults);
  o.watchdog_period_s = cfg.rt.watchdog_period_s;
  return o;
}

sim::SimOptions to_sim_options(const ExecutorConfig& cfg) {
  sim::SimOptions o;
  o.seed = cfg.seed;
  o.policy_options = cfg.policy_options;
  o.ptt_ratio = cfg.ptt_ratio;
  o.stats_phases = cfg.stats_phases;
  o.timeline = cfg.timeline;
  o.des_threads = cfg.sim.des_threads;
  return o;
}

// Scenarios built from ExecutorConfig::scenario_spec; the executor keeps
// them alive for the engine's lifetime (one per rank — each rank's copy is
// built against that rank's topology).
using OwnedScenarios = std::vector<std::unique_ptr<SpeedScenario>>;
// Likewise for the resolved fail-stop/freeze schedules (scenario_spec
// faults), resolved per rank against that rank's topology.
using OwnedFaultPlans = std::vector<std::unique_ptr<FaultPlan>>;

class SimExecutor final : public Executor {
 public:
  SimExecutor(std::vector<sim::RankSpec> ranks, Policy policy,
              const TaskTypeRegistry& registry, const ExecutorConfig& cfg,
              OwnedScenarios owned, OwnedFaultPlans owned_faults)
      : Executor(policy, cfg.service),
        owned_scenarios_(std::move(owned)),
        owned_fault_plans_(std::move(owned_faults)),
        engine_(std::move(ranks), policy, registry, to_sim_options(cfg)) {
    // Deferred notifications only: installing the hooks adds no events and
    // changes no engine decision, so bare submits stay bitwise-identical
    // to a hook-less engine (tests/sim_determinism_test.cpp).
    engine_.set_service_hooks(
        [this](JobId id, double) { on_engine_job_done(id); },
        [this](std::uint64_t token, double) { on_timer(token); });
  }

  Backend backend() const override { return Backend::kSim; }
  int num_ranks() const override { return engine_.num_ranks(); }
  const Topology& topology(int rank = 0) const override {
    return engine_.stats(rank).topology();
  }
  double now() const override { return engine_.now(); }
  ExecutionStats& stats(int rank = 0) override { return engine_.stats(rank); }
  PolicyEngine& policy(int rank = 0) override { return engine_.policy(rank); }
  PttStore& ptt(int rank = 0) override { return engine_.ptt(rank); }

 protected:
  JobTicket submit_job(const Dag& dag, double arrival_offset_s) override {
    const JobId id = engine_.submit(dag, arrival_offset_s);
    return JobTicket{id, engine_.now() + arrival_offset_s};
  }
  double wait_job(JobId id) override {
    // engine_.wait pumps: each pump runs to the next service notification
    // (job-done, timer) and delivers it before the next pump starts.
    return engine_.wait(id);
  }
  void svc_block_until(SvcWait cond, JobId id) override {
    // Single driving thread: nothing else advances the service, so pump
    // virtual time until the condition (release/admission) resolves.
    for (;;) {
      {
        MutexLock g(svc_mu_);
        if (svc_cond_locked(cond, id)) return;
      }
      DAS_CHECK_MSG(engine_.pump(),
                    "service deadlock: job " + std::to_string(id) +
                        " cannot progress with no engine events pending "
                        "(blocked admission with nothing in flight?)");
    }
  }
  void svc_arm_timer(double offset_s, std::uint64_t token) override {
    engine_.schedule_timer(offset_s, token);
  }
  bool engine_defers_arrivals() const override { return true; }
  bool svc_finished_by(JobId id, double deadline_s) override {
    // Single driving thread: pump virtual time until the job resolves or
    // the virtual clock passes the deadline (the pump's horizon stops it
    // right after the event that crosses it). Deterministic like
    // everything else on this backend — same seed + same calls = same
    // outcome.
    for (;;) {
      const JobProbe p = probe_job(id);
      if (p.terminal) return true;
      if (p.released && engine_.job_done(p.engine_id)) return true;
      if (engine_.now() > deadline_s) return false;
      if (!engine_.pump(deadline_s)) return false;  // nothing left to finish it
    }
  }
  std::uint64_t engine_tasks_reexecuted() const override {
    return engine_.tasks_reexecuted();
  }

 private:
  OwnedScenarios owned_scenarios_;  // declared before engine_: outlives it
  OwnedFaultPlans owned_fault_plans_;
  sim::SimEngine engine_;
};

class RtExecutor final : public Executor {
 public:
  RtExecutor(const Topology& topo, Policy policy,
             const TaskTypeRegistry& registry, const ExecutorConfig& cfg,
             OwnedScenarios owned, FaultPlan faults)
      : Executor(policy, cfg.service),
        owned_scenarios_(std::move(owned)),
        runtime_(topo, policy, registry,
                 to_rt_options(cfg, std::move(faults))) {
    // Completion hook fires on the finishing worker's thread with the
    // runtime lock released; the service layer may re-enter submit() from
    // it (lock order svc_mu_ -> runtime mu_ holds on every path).
    runtime_.set_job_done_hook([this](JobId id) { on_engine_job_done(id); });
  }

  ~RtExecutor() override {
    // Stop the pacer BEFORE runtime_ is destroyed: a late timer would
    // submit into a dead runtime. Undelivered timers are dropped — jobs
    // still pending at destruction were never completable anyway.
    {
      MutexLock g(pacer_mu_);
      pacer_stop_ = true;
    }
    pacer_cv_.notify_all();
    if (pacer_.joinable()) pacer_.join();
  }

  Backend backend() const override { return Backend::kRt; }
  int num_ranks() const override { return 1; }
  const Topology& topology(int rank = 0) const override {
    DAS_CHECK(rank == 0);
    return runtime_.topology();
  }
  double now() const override { return runtime_.scenario_now(); }
  ExecutionStats& stats(int rank = 0) override {
    DAS_CHECK(rank == 0);
    return runtime_.stats();
  }
  PolicyEngine& policy(int rank = 0) override {
    DAS_CHECK(rank == 0);
    return runtime_.policy();
  }
  PttStore& ptt(int rank = 0) override {
    DAS_CHECK(rank == 0);
    return runtime_.ptt();
  }

 protected:
  JobTicket submit_job(const Dag& dag, double arrival_offset_s) override {
    // The real runtime has no virtual clock: future arrivals never reach
    // it. The service layer paces them in wall time (svc_arm_timer) and
    // releases with offset 0.
    DAS_CHECK_MSG(arrival_offset_s == 0.0,
                  "Backend::kRt releases are immediate; future arrivals are "
                  "paced by the service layer");
    const double arrival = runtime_.scenario_now();
    return JobTicket{runtime_.submit(dag), arrival};
  }
  double wait_job(JobId id) override { return runtime_.wait(id); }
  void svc_block_until(SvcWait cond, JobId id) override {
    MutexLock g(svc_mu_);
    while (!svc_cond_locked(cond, id)) svc_cv_.wait(g);
  }
  void svc_arm_timer(double offset_s, std::uint64_t token) override {
    const std::int64_t deadline =
        steady_now_ns() + static_cast<std::int64_t>(offset_s * 1e9);
    MutexLock g(pacer_mu_);
    // Lazy start: single-shot rt drivers never pay for the thread.
    if (!pacer_.joinable()) pacer_ = std::thread([this] { pacer_main(); });
    pacer_q_.emplace(deadline, token);
    pacer_cv_.notify_one();
  }
  bool engine_defers_arrivals() const override { return false; }
  bool svc_finished_by(JobId id, double deadline_s) override {
    // Completion/release/rejection all notify svc_cv_, so park on it with
    // the remaining wall budget and re-probe on every wake.
    MutexLock g(svc_mu_);
    for (;;) {
      const JobProbe p = probe_job_locked(id);
      if (p.terminal) return true;
      if (p.released && runtime_.job_done(p.engine_id)) return true;
      const double remaining_s = deadline_s - now();
      if (remaining_s <= 0.0) return false;
      svc_cv_.wait_for(g, std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::duration<double>(remaining_s)));
    }
  }
  std::uint64_t engine_tasks_reexecuted() const override {
    return runtime_.tasks_reexecuted();
  }

 private:
  static std::int64_t steady_now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Wall-clock timer thread: sleeps until the earliest deadline, then
  /// delivers the due tokens OUTSIDE pacer_mu_ (on_timer takes svc_mu_ and
  /// may submit into the runtime).
  void pacer_main() {
    std::vector<std::uint64_t> due;
    while (pacer_collect_due(due)) {
      for (const std::uint64_t token : due) on_timer(token);
      due.clear();
    }
  }

  /// Blocks until timers are due (filling `due`, returns true) or shutdown
  /// (returns false).
  bool pacer_collect_due(std::vector<std::uint64_t>& due) {
    MutexLock g(pacer_mu_);
    for (;;) {
      if (pacer_stop_) return false;
      if (pacer_q_.empty()) {
        pacer_cv_.wait(g);
        continue;
      }
      const std::int64_t now = steady_now_ns();
      const std::int64_t head = pacer_q_.begin()->first;
      if (head > now) {
        pacer_cv_.wait_for(g, std::chrono::nanoseconds(head - now));
        continue;
      }
      while (!pacer_q_.empty() && pacer_q_.begin()->first <= now) {
        due.push_back(pacer_q_.begin()->second);
        pacer_q_.erase(pacer_q_.begin());
      }
      return true;
    }
  }

  OwnedScenarios owned_scenarios_;  // declared before runtime_: outlives it
  rt::Runtime runtime_;
  Mutex pacer_mu_;
  CondVar pacer_cv_;
  /// deadline (steady ns) -> public-JobId token.
  std::multimap<std::int64_t, std::uint64_t> pacer_q_ DAS_GUARDED_BY(pacer_mu_);
  bool pacer_stop_ DAS_GUARDED_BY(pacer_mu_) = false;
  std::thread pacer_;  // started under pacer_mu_; joined in the dtor
};

}  // namespace

std::unique_ptr<Executor> make_executor(Backend backend, const Topology& topo,
                                        Policy policy,
                                        const TaskTypeRegistry& registry,
                                        ExecutorConfig config) {
  return make_executor(backend, {sim::RankSpec{&topo, config.scenario}}, policy,
                       registry, std::move(config));
}

std::unique_ptr<Executor> make_executor(Backend backend,
                                        std::vector<sim::RankSpec> ranks,
                                        Policy policy,
                                        const TaskTypeRegistry& registry,
                                        ExecutorConfig config) {
  DAS_CHECK_MSG(!ranks.empty(), "make_executor: at least one rank required");
  DAS_CHECK_MSG(!(config.scenario != nullptr && config.scenario_spec),
                "make_executor: set ExecutorConfig::scenario OR scenario_spec, "
                "not both");
  // A declarative spec is built per rank (against that rank's topology) and
  // owned by the executor — the driver never manages SpeedScenario lifetime.
  OwnedScenarios owned;
  if (config.scenario_spec) {
    for (sim::RankSpec& r : ranks) {
      if (r.scenario != nullptr) continue;  // a RankSpec scenario wins
      owned.push_back(std::make_unique<SpeedScenario>(
          scenario::build(*config.scenario_spec, *r.topo)));
      r.scenario = owned.back().get();
    }
  }
  // config.scenario is the fallback for every rank without its own scenario
  // (so a driver migrating from the single-topology overload does not lose
  // its interference scenario silently); a RankSpec scenario wins.
  for (sim::RankSpec& r : ranks)
    if (r.scenario == nullptr) r.scenario = config.scenario;
  // Fail-stop/freeze faults resolve from the same spec, also per rank.
  const bool spec_faults =
      config.scenario_spec && config.scenario_spec->has_engine_faults();
  OwnedFaultPlans owned_faults;
  if (spec_faults) {
    for (sim::RankSpec& r : ranks) {
      if (r.faults != nullptr) continue;  // a RankSpec plan wins
      owned_faults.push_back(std::make_unique<FaultPlan>(
          scenario::resolve_faults(*config.scenario_spec, *r.topo)));
      r.faults = owned_faults.back().get();
    }
  }
  switch (backend) {
    case Backend::kSim:
      return std::make_unique<SimExecutor>(std::move(ranks), policy, registry,
                                           config, std::move(owned),
                                           std::move(owned_faults));
    case Backend::kRt: {
      DAS_CHECK_MSG(ranks.size() == 1,
                    "Backend::kRt is single-domain; use net::World for real "
                    "multi-rank runs");
      ExecutorConfig cfg = std::move(config);
      cfg.scenario = ranks[0].scenario;
      FaultPlan faults;
      if (ranks[0].faults != nullptr) faults = *ranks[0].faults;
      return std::make_unique<RtExecutor>(*ranks[0].topo, policy, registry, cfg,
                                          std::move(owned), std::move(faults));
    }
  }
  DAS_CHECK_MSG(false, "make_executor: unknown backend");
  return nullptr;
}

}  // namespace das
