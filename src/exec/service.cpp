#include <utility>

#include "exec/executor.hpp"
#include "util/assert.hpp"

// Multi-tenant service layer over the engine facade: admission control,
// deficit-round-robin fair release, claim-ownership job finishing. The
// header (exec/executor.hpp) and exec/session.hpp carry the contracts;
// this file is pure bookkeeping around two engine-provided primitives —
// submit_job() and the svc_* bridge virtuals.
//
// Locking: svc_mu_ guards every service structure and is held ACROSS
// submit_job (lock order svc_mu_ -> engine lock; nothing takes them in the
// other order), but never across wait_job — completion latches are engine
// business. On sim, everything below runs on the one driving thread and
// the lock is uncontended by construction.

namespace das {

namespace {

/// DRR quantum: tasks credited per ring visit to a weight-1.0 tenant.
constexpr double kDrrQuantumTasks = 32.0;

}  // namespace

void check_tenant_config(const TenantConfig& cfg) {
  DAS_CHECK_MSG(cfg.weight > 0.0, "open_session: weight must be > 0");
  DAS_CHECK_MSG(cfg.max_in_flight >= 0,
                "open_session: max_in_flight must be >= 0 (0 = unbounded)");
  DAS_CHECK_MSG(cfg.max_queued_tasks >= 0,
                "open_session: max_queued_tasks must be >= 0 (0 = unbounded)");
}

void check_submit_options(const SubmitOptions& opts) {
  DAS_CHECK_MSG(opts.arrival_offset_s >= 0.0,
                "submit: arrival offset must be >= 0");
}

JobId Executor::submit(const Dag& dag, const SubmitOptions& opts) {
  return submit_impl(dag, opts, /*tenant=*/-1);
}

JobId Executor::submit_impl(const Dag& dag, const SubmitOptions& opts,
                            int tenant) {
  check_submit_options(opts);
  ServiceJob job;
  job.tenant = tenant;
  job.dag = &dag;
  job.tasks = static_cast<std::int64_t>(dag.num_nodes());
  if (tenant < 0 &&
      (opts.arrival_offset_s == 0.0 || engine_defers_arrivals())) {
    // Bare submit on the engine's own arrival path: no queue, no timer,
    // no hook registration — byte-for-byte the pre-service behavior
    // (single-tenant sim streams stay bitwise-reproducible). The engine
    // checks the DAG before the job takes an id.
    MutexLock g(svc_mu_);
    const JobTicket ticket = submit_job(dag, opts.arrival_offset_s);
    job.engine_id = ticket.id;
    job.arrival_s = ticket.arrival_s;
    job.release_s = ticket.arrival_s;
    job.released = true;
    const JobId id = next_public_++;
    jobs_.emplace(id, std::move(job));
    return id;
  }
  // Every other job reaches the engine later, from a completion hook or a
  // timer, where a DAG the engine refuses could only end the process:
  // refuse it here, before it takes an id.
  check_job(dag);
  MutexLock g(svc_mu_);
  const JobId id = next_public_++;
  jobs_.emplace(id, std::move(job));
  if (opts.arrival_offset_s > 0.0) {
    // Deferred arrival: bare rt release pacing (tenant < 0) or a session
    // job whose admission check runs at arrival time, both driven by the
    // engine-appropriate timer (virtual event on sim, pacer thread on rt).
    // The token is the public id.
    svc_arm_timer(opts.arrival_offset_s, static_cast<std::uint64_t>(id));
  } else {
    try_admit_locked(id);
  }
  return id;
}

void Executor::try_admit_locked(JobId id) {
  ServiceJob& job = jobs_.at(id);
  TenantState& t = tenants_[static_cast<std::size_t>(job.tenant)];
  job.arrival_s = now();
  if (t.cfg.max_queued_tasks > 0 &&
      t.pending_tasks + job.tasks > t.cfg.max_queued_tasks) {
    job.rejected = true;
    ++t.counters.rejected;
    svc_cv_.notify_all();
    return;
  }
  ++t.counters.submitted;
  t.pending_tasks += job.tasks;
  t.queue.push_back(id);
  if (!t.in_ring) {
    t.in_ring = true;
    ring_.push_back(static_cast<std::size_t>(job.tenant));
  }
  pump_locked();
}

void Executor::pump_locked() {
  // Deficit round-robin over the backlogged-tenant ring: visit the tenant
  // at the cursor, credit one weighted quantum (once per visit — see
  // cursor_credited_), release whole jobs while the deficit covers their
  // task counts, advance. Tenants at their OWN in-flight bound are skipped
  // WITHOUT credit (deficit must not accumulate while the tenant cannot
  // use it — it would burst on unblock); a burst cut short by the GLOBAL
  // bound keeps the cursor so the tenant resumes its turn, un-re-credited,
  // when capacity frees. The loop exits only when every backlogged tenant
  // is bound-blocked or the ring is empty: release is work-conserving.
  for (;;) {
    if (svc_.max_service_inflight > 0 &&
        service_inflight_ >= svc_.max_service_inflight)
      return;
    const std::size_t n = ring_.size();
    if (n == 0) return;
    std::size_t pos = 0;
    bool found = false;
    for (std::size_t scanned = 0; scanned < n; ++scanned) {
      pos = (ring_cursor_ + scanned) % n;
      const TenantState& t = tenants_[ring_[pos]];
      if (t.cfg.max_in_flight > 0 &&
          t.released_in_flight >= t.cfg.max_in_flight)
        continue;
      found = true;
      break;
    }
    if (!found) return;
    if (pos != ring_cursor_) {
      ring_cursor_ = pos;
      cursor_credited_ = false;
    }
    TenantState& t = tenants_[ring_[pos]];
    if (!cursor_credited_) {
      t.deficit += t.cfg.weight * kDrrQuantumTasks;
      cursor_credited_ = true;
    }
    bool global_blocked = false;
    while (!t.queue.empty()) {
      if (svc_.max_service_inflight > 0 &&
          service_inflight_ >= svc_.max_service_inflight) {
        global_blocked = true;
        break;
      }
      if (t.cfg.max_in_flight > 0 &&
          t.released_in_flight >= t.cfg.max_in_flight)
        break;
      const JobId id = t.queue.front();
      const auto cost = static_cast<double>(jobs_.at(id).tasks);
      if (t.deficit < cost) break;
      t.deficit -= cost;
      t.queue.pop_front();
      release_locked(id);
    }
    if (global_blocked) return;  // resume THIS tenant when capacity frees
    cursor_credited_ = false;
    if (t.queue.empty()) {
      // Drained: drop the residual credit (classic DRR — an idle tenant
      // must not bank credit against its next burst) and leave the ring;
      // the cursor moves on to the tenant that followed.
      t.deficit = 0.0;
      t.in_ring = false;
      ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(pos));
      ring_cursor_ = ring_.empty() ? 0 : pos % ring_.size();
    } else {
      ring_cursor_ = (pos + 1) % ring_.size();
    }
  }
}

void Executor::release_locked(JobId id) {
  ServiceJob& job = jobs_.at(id);
  const JobTicket ticket = submit_job(*job.dag, 0.0);
  job.engine_id = ticket.id;
  job.release_s = ticket.arrival_s;
  job.released = true;
  if (job.tenant < 0) {
    // Paced bare release: arrival == release, mirroring the engine path.
    job.arrival_s = ticket.arrival_s;
  }
  if (job.tenant >= 0) {
    engine_to_public_.emplace(ticket.id, id);
    ++service_inflight_;
    TenantState& t = tenants_[static_cast<std::size_t>(job.tenant)];
    ++t.released_in_flight;
    t.pending_tasks -= job.tasks;
    ++t.counters.released;
    t.counters.released_tasks += job.tasks;
  }
  svc_cv_.notify_all();
}

void Executor::on_engine_job_done(JobId engine_id) {
  {
    MutexLock g(svc_mu_);
    const auto it = engine_to_public_.find(engine_id);
    if (it != engine_to_public_.end()) {
      const JobId id = it->second;
      engine_to_public_.erase(it);
      --service_inflight_;
      TenantState& t =
          tenants_[static_cast<std::size_t>(jobs_.at(id).tenant)];
      --t.released_in_flight;
      ++t.counters.completed;
      // A completion frees in-flight headroom: release what it unblocks.
      pump_locked();
    }
    // else: bare job — no accounting, but still fall through to the notify
    // so a wait_for() parked on svc_cv_ re-probes its completion.
  }
  svc_cv_.notify_all();
}

void Executor::on_timer(std::uint64_t token) {
  const auto id = static_cast<JobId>(token);
  {
    MutexLock g(svc_mu_);
    if (jobs_.at(id).tenant < 0) {
      release_locked(id);  // paced bare release (rt future arrival)
    } else {
      try_admit_locked(id);  // deferred session arrival
    }
  }
  svc_cv_.notify_all();
}

RunResult Executor::wait(JobId id) {
  // Claim BEFORE blocking: exactly one finisher owns a job, so a
  // concurrent drain()/wait() on the same id fails fast here instead of
  // racing into the engine.
  {
    MutexLock g(svc_mu_);
    const auto it = jobs_.find(id);
    DAS_CHECK_MSG(it != jobs_.end() && !it->second.claimed,
                  "job " + std::to_string(id) +
                      " was not submitted through this executor (or was "
                      "already waited)");
    it->second.claimed = true;
  }
  return finish_claimed(id);
}

RunResult Executor::finish_claimed(JobId id) {
  svc_block_until(id);
  ServiceJob job;
  std::string tenant_name;
  {
    MutexLock g(svc_mu_);
    job = jobs_.at(id);
    if (job.tenant >= 0)
      tenant_name = tenants_[static_cast<std::size_t>(job.tenant)].cfg.name;
  }
  RunResult r;
  r.backend = backend();
  r.policy = policy_kind();
  r.job = id;
  r.arrival_s = job.arrival_s;
  r.tenant = std::move(tenant_name);
  if (job.rejected) {
    r.outcome = RunResult::Outcome::kRejected;
  } else {
    r.makespan_s = wait_job(job.engine_id);
    r.tasks = job.tasks;
    r.tasks_per_s = r.makespan_s > 0.0
                        ? static_cast<double>(job.tasks) / r.makespan_s
                        : 0.0;
    r.queue_s = job.release_s - job.arrival_s;
    r.tasks_reexecuted =
        static_cast<std::int64_t>(engine_tasks_reexecuted());
    r.stats.reserve(static_cast<std::size_t>(num_ranks()));
    for (int rank = 0; rank < num_ranks(); ++rank)
      r.stats.push_back(stats(rank).snapshot());
  }
  MutexLock g(svc_mu_);
  // On rt the engine's completion hook trails wait_job's return (it runs on
  // the worker thread after the completion latch fires). Its accounting —
  // in-flight decrement, counters.completed, the pump — must land before
  // this job record disappears and before counters() can observe the wait,
  // so park until the hook has erased the engine mapping. On sim the hook
  // was delivered inside whichever pump completed the job: no wait.
  if (!job.rejected && job.tenant >= 0)
    while (engine_to_public_.count(job.engine_id) != 0) svc_cv_.wait(g);
  jobs_.erase(id);
  return r;
}

Executor::JobProbe Executor::probe_job_locked(JobId id) {
  const ServiceJob& job = jobs_.at(id);
  JobProbe p;
  p.terminal = job.rejected;
  p.released = job.released;
  p.engine_id = job.engine_id;
  return p;
}

std::optional<RunResult> Executor::wait_for(JobId id, double timeout_s) {
  DAS_CHECK_MSG(timeout_s >= 0.0, "wait_for: timeout must be >= 0");
  const double deadline = now() + timeout_s;
  {
    MutexLock g(svc_mu_);
    const auto it = jobs_.find(id);
    DAS_CHECK_MSG(it != jobs_.end() && !it->second.claimed,
                  "job " + std::to_string(id) +
                      " was not submitted through this executor (or was "
                      "already waited)");
    it->second.claimed = true;
  }
  if (!svc_finished_by(id, deadline)) {
    // Timed out: release the claim so a later wait()/drain() can finish the
    // job — wait_for never abandons work, it only bounds THIS caller.
    MutexLock g(svc_mu_);
    jobs_.at(id).claimed = false;
    return std::nullopt;
  }
  return finish_claimed(id);  // everything is done; assembles without blocking
}

JobId Executor::claim_next_locked(int tenant) {
  for (auto& [id, job] : jobs_) {
    if (job.claimed) continue;
    if (tenant == -1 || job.tenant == tenant) {
      job.claimed = true;
      return id;
    }
  }
  return kInvalidJob;
}

std::vector<RunResult> Executor::drain() { return drain_tenant(-1); }

std::vector<RunResult> Executor::drain_tenant(int tenant) {
  // Claim one unclaimed job at a time (lowest id first = submission
  // order): the claim is one critical section, so jobs another thread
  // already claimed are simply not ours to drain and a drain composes
  // with concurrent wait()ers on the rt backend.
  std::vector<RunResult> results;
  for (;;) {
    JobId id = kInvalidJob;
    {
      MutexLock g(svc_mu_);
      id = claim_next_locked(tenant);
    }
    if (id == kInvalidJob) break;
    results.push_back(finish_claimed(id));
  }
  return results;
}

std::unique_ptr<Session> Executor::open_session(TenantConfig cfg) {
  check_tenant_config(cfg);
  MutexLock g(svc_mu_);
  const int tenant = static_cast<int>(tenants_.size());
  const std::string name = cfg.name;
  const double weight = cfg.weight;
  TenantState state;
  state.cfg = std::move(cfg);
  tenants_.push_back(std::move(state));
  return std::unique_ptr<Session>(new Session(this, tenant, name, weight));
}

TenantCounters Executor::counters_of(int tenant) {
  MutexLock g(svc_mu_);
  DAS_CHECK_MSG(
      tenant >= 0 && static_cast<std::size_t>(tenant) < tenants_.size(),
      "counters_of: unknown tenant");
  return tenants_[static_cast<std::size_t>(tenant)].counters;
}

void Executor::reset_stats() {
  for (int rank = 0; rank < num_ranks(); ++rank) stats(rank).reset();
}

}  // namespace das
