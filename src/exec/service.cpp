#include <algorithm>
#include <cmath>
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

JobId Executor::submit(const Dag& dag, const SubmitOptions& opts) {
  return submit_impl(dag, opts, /*tenant=*/-1);
}

JobId Executor::submit_impl(const Dag& dag, const SubmitOptions& opts,
                            int tenant) {
  DAS_CHECK_MSG(opts.arrival_offset_s >= 0.0,
                "submit: arrival offset must be >= 0");
  DAS_CHECK_MSG(opts.deadline_s >= 0.0, "submit: deadline must be >= 0");
  const auto tasks = static_cast<std::int64_t>(dag.num_nodes());
  JobId id = kInvalidJob;
  bool block = false;
  {
    MutexLock g(svc_mu_);
    id = next_public_++;
    ServiceJob job;
    job.tenant = tenant;
    job.dag = &dag;
    job.tasks = tasks;
    job.priority = opts.priority;
    job.deadline_s = opts.deadline_s;
    if (tenant < 0 &&
        (opts.arrival_offset_s == 0.0 || engine_defers_arrivals())) {
      // Bare submit on the engine's own arrival path: no queue, no timer,
      // no hook registration — byte-for-byte the pre-service behavior
      // (single-tenant sim streams stay bitwise-reproducible).
      const JobTicket ticket = submit_job(dag, opts.arrival_offset_s);
      job.engine_id = ticket.id;
      job.arrival_s = ticket.arrival_s;
      job.release_s = ticket.arrival_s;
      job.arrived = true;
      job.released = true;
      jobs_.emplace(id, std::move(job));
      return id;
    }
    if (tenant >= 0) {
      DAS_CHECK_MSG(static_cast<std::size_t>(tenant) < tenants_.size(),
                    "submit: unknown tenant");
      const TenantConfig& cfg = tenants_[static_cast<std::size_t>(tenant)].cfg;
      if (cfg.overload == Overload::kBlock) {
        // A blocking admission decision cannot be deferred to a timer, and
        // an over-budget job would never fit however long it waits.
        DAS_CHECK_MSG(opts.arrival_offset_s == 0.0,
                      "Overload::kBlock tenants cannot defer arrivals "
                      "(arrival_offset_s must be 0)");
        DAS_CHECK_MSG(
            cfg.max_queued_tasks == 0 || tasks <= cfg.max_queued_tasks,
                      "submit: job (" + std::to_string(tasks) +
                          " tasks) exceeds tenant '" + cfg.name +
                          "' queued-task budget " +
                          std::to_string(cfg.max_queued_tasks) +
                          " — an Overload::kBlock submit would never unblock");
      }
    }
    jobs_.emplace(id, std::move(job));
    if (opts.arrival_offset_s > 0.0) {
      // Deferred arrival: bare rt release pacing (tenant < 0) or a session
      // job whose admission check runs at arrival time, both driven by the
      // engine-appropriate timer (virtual event on sim, pacer thread on rt).
      svc_arm_timer(opts.arrival_offset_s, timer_token(kTimerArrival, id));
      return id;
    }
    block = !try_admit_locked(id);
  }
  if (block) svc_block_until(SvcWait::kAdmissionDecided, id);
  return id;
}

bool Executor::try_admit_locked(JobId id) {
  ServiceJob& job = jobs_.at(id);
  if (job.arrived || job.rejected) return true;  // idempotent on retries
  TenantState& t = tenants_[static_cast<std::size_t>(job.tenant)];
  if (t.cfg.max_queued_tasks > 0 &&
      t.pending_tasks + job.tasks > t.cfg.max_queued_tasks) {
    if (t.cfg.overload == Overload::kReject) {
      if (job.retries < t.cfg.max_retries) {
        // Retry policy: instead of bouncing, re-run this admission check
        // after a capped exponential backoff. The submitter is NOT blocked
        // (the job is simply undecided until a retry lands or the budget
        // runs out); wait() resolves either way.
        const double backoff =
            std::min(t.cfg.retry_backoff_s *
                         std::pow(2.0, static_cast<double>(job.retries)),
                     t.cfg.retry_backoff_cap_s);
        ++job.retries;
        ++t.counters.retries;
        svc_arm_timer(backoff, timer_token(kTimerRetry, id));
        return true;
      }
      job.rejected = true;
      job.retries_exhausted = t.cfg.max_retries > 0;
      job.arrival_s = now();
      ++t.counters.rejected;
      svc_cv_.notify_all();
      return true;
    }
    return false;  // kBlock: the submitter parks and retries on drain
  }
  job.arrived = true;
  job.arrival_s = now();
  ++t.counters.submitted;
  t.pending_tasks += job.tasks;
  t.buckets[job.priority].push_back(id);
  if (job.deadline_s > 0.0)
    svc_arm_timer(job.deadline_s, timer_token(kTimerDeadline, id));
  if (!t.in_ring) {
    t.in_ring = true;
    ring_.push_back(static_cast<std::size_t>(job.tenant));
  }
  pump_locked();
  return true;
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
      t.deficit += t.cfg.weight * static_cast<double>(svc_.drr_quantum_tasks);
      cursor_credited_ = true;
    }
    bool global_blocked = false;
    while (!t.buckets.empty()) {
      if (svc_.max_service_inflight > 0 &&
          service_inflight_ >= svc_.max_service_inflight) {
        global_blocked = true;
        break;
      }
      if (t.cfg.max_in_flight > 0 &&
          t.released_in_flight >= t.cfg.max_in_flight)
        break;
      auto head = t.buckets.begin();
      const JobId id = head->second.front();
      const auto cost = static_cast<double>(jobs_.at(id).tasks);
      if (t.deficit < cost) break;
      t.deficit -= cost;
      head->second.pop_front();
      if (head->second.empty()) t.buckets.erase(head);
      release_locked(id);
    }
    if (global_blocked) return;  // resume THIS tenant when capacity frees
    cursor_credited_ = false;
    if (t.buckets.empty()) {
      leave_ring_locked(pos);
    } else {
      ring_cursor_ = (pos + 1) % ring_.size();
    }
  }
}

void Executor::leave_ring_locked(std::size_t pos) {
  // Drained: drop the residual credit (classic DRR — an idle tenant must
  // not bank credit against its next burst) and leave the ring.
  TenantState& t = tenants_[ring_[pos]];
  t.deficit = 0.0;
  t.in_ring = false;
  ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(pos));
  if (ring_cursor_ > pos) --ring_cursor_;
  if (!ring_.empty()) ring_cursor_ %= ring_.size();
  else ring_cursor_ = 0;
  cursor_credited_ = false;
}

void Executor::release_locked(JobId id) {
  ServiceJob& job = jobs_.at(id);
  const JobTicket ticket = submit_job(*job.dag, 0.0);
  job.engine_id = ticket.id;
  job.release_s = ticket.arrival_s;
  job.released = true;
  if (job.tenant < 0) {
    // Paced bare release: arrival == release, mirroring the engine path.
    job.arrived = true;
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
  const std::uint64_t kind = token >> kTimerKindShift;
  const auto id =
      static_cast<JobId>(token & ((std::uint64_t{1} << kTimerKindShift) - 1));
  {
    MutexLock g(svc_mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return;  // claimed/finished before the timer fired
    switch (kind) {
      case kTimerArrival:
        if (it->second.tenant < 0) {
          release_locked(id);  // paced bare release (rt future arrival)
        } else {
          (void)try_admit_locked(id);  // deferred session arrival
        }
        break;
      case kTimerDeadline:
        // Only a still-queued job can time out: released jobs run to
        // completion, rejected/retrying ones already have their outcome.
        if (it->second.arrived && !it->second.released) timeout_locked(id);
        break;
      case kTimerRetry:
        if (!it->second.arrived && !it->second.rejected)
          (void)try_admit_locked(id);
        break;
      default:
        DAS_CHECK_MSG(false, "on_timer: unknown timer token kind");
    }
  }
  svc_cv_.notify_all();
}

void Executor::timeout_locked(JobId id) {
  ServiceJob& job = jobs_.at(id);
  TenantState& t = tenants_[static_cast<std::size_t>(job.tenant)];
  auto bucket = t.buckets.find(job.priority);
  DAS_CHECK(bucket != t.buckets.end());
  auto& q = bucket->second;
  const auto pos = std::find(q.begin(), q.end(), id);
  DAS_CHECK(pos != q.end());
  q.erase(pos);
  if (q.empty()) t.buckets.erase(bucket);
  t.pending_tasks -= job.tasks;
  ++t.counters.timed_out;
  job.timed_out = true;
  if (t.buckets.empty() && t.in_ring) {
    const auto rit =
        std::find(ring_.begin(), ring_.end(),
                  static_cast<std::size_t>(job.tenant));
    DAS_CHECK(rit != ring_.end());
    leave_ring_locked(static_cast<std::size_t>(rit - ring_.begin()));
  }
}

bool Executor::svc_cond_locked(SvcWait cond, JobId id) {
  switch (cond) {
    case SvcWait::kReleased: {
      const ServiceJob& job = jobs_.at(id);
      return job.released || job.rejected || job.timed_out;
    }
    case SvcWait::kAdmissionDecided:
      return try_admit_locked(id);
  }
  DAS_CHECK_MSG(false, "svc_cond_locked: unknown condition");
  return false;
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
  svc_block_until(SvcWait::kReleased, id);
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
  if (job.timed_out) {
    r.outcome = RunResult::Outcome::kTimedOut;
  } else if (job.rejected) {
    r.outcome = job.retries_exhausted ? RunResult::Outcome::kRetriesExhausted
                                      : RunResult::Outcome::kRejected;
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
  if (!job.rejected && !job.timed_out && job.tenant >= 0)
    while (engine_to_public_.count(job.engine_id) != 0) svc_cv_.wait(g);
  jobs_.erase(id);
  return r;
}

Executor::JobProbe Executor::probe_job_locked(JobId id) {
  const ServiceJob& job = jobs_.at(id);
  JobProbe p;
  p.terminal = job.rejected || job.timed_out;
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
    if (tenant == -1 || job.tenant == tenant ||
        (tenant == -2 && job.tenant < 0)) {
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

std::vector<TenantResults> Executor::drain_grouped() {
  std::vector<TenantResults> groups;
  {
    MutexLock g(svc_mu_);
    groups.resize(tenants_.size() + 1);
    groups[0].tenant.clear();  // bare group
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      groups[i + 1].tenant = tenants_[i].cfg.name;
      groups[i + 1].weight = tenants_[i].cfg.weight;
    }
  }
  bool bare_any = false;
  for (;;) {
    JobId id = kInvalidJob;
    int tenant = -1;
    {
      MutexLock g(svc_mu_);
      id = claim_next_locked(-1);
      if (id != kInvalidJob) tenant = jobs_.at(id).tenant;
    }
    if (id == kInvalidJob) break;
    if (tenant < 0) bare_any = true;
    groups[static_cast<std::size_t>(tenant + 1)].results.push_back(
        finish_claimed(id));
  }
  if (!bare_any) groups.erase(groups.begin());
  return groups;
}

std::unique_ptr<Session> Executor::open_session(TenantConfig cfg) {
  DAS_CHECK_MSG(cfg.weight > 0.0, "open_session: weight must be > 0");
  DAS_CHECK_MSG(cfg.max_in_flight >= 0,
                "open_session: max_in_flight must be >= 0 (0 = unbounded)");
  DAS_CHECK_MSG(cfg.max_queued_tasks >= 0,
                "open_session: max_queued_tasks must be >= 0 (0 = unbounded)");
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

std::vector<JobId> Session::submit_batch(const std::vector<const Dag*>& dags,
                                         const SubmitOptions& opts) {
  std::vector<JobId> ids;
  ids.reserve(dags.size());
  for (const Dag* dag : dags) {
    DAS_CHECK_MSG(dag != nullptr, "submit_batch: null dag");
    ids.push_back(submit(*dag, opts));
  }
  return ids;
}

}  // namespace das
