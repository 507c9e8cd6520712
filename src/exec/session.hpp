#pragma once
// Multi-tenant service-layer option types (paper §4.1.1's persistent-runtime
// regime, grown into a scheduler-as-a-service).
//
// The executor facade (exec/executor.hpp) is a job service; this header adds
// the vocabulary for sharing one engine between several TENANTS: a
// TenantConfig describes one client's admission budget and fair-share
// weight, SubmitOptions carries the per-job submission knobs, and
// ServiceConfig bounds the service as a whole. The types live apart from
// executor.hpp so net/wire.hpp can serialize them without pulling in the
// engine headers.
//
// Admission + fairness model (implemented in exec/service.cpp):
//
//   submit ──► per-tenant queue ──► DRR release ──► engine submit_job
//              (admission:           (weighted fair
//               queued-task budget)   release, bounded
//                                     in-flight)
//
// * Admission is checked at ARRIVAL against `max_queued_tasks`: an over-
//   budget submit is rejected (Overload::kReject — the job's RunResult
//   comes back Outcome::kRejected, after the optional retry/backoff loop)
//   or blocks the submitter until the queue drains (Overload::kBlock).
// * Release is paced by deficit round-robin: each needy tenant is credited
//   `weight * drr_quantum_tasks` per round and releases whole jobs while
//   its deficit covers their task counts, subject to `max_in_flight` (its
//   own bound) and `max_service_inflight` (the global bound). Long-run
//   released work converges to weight proportions regardless of job sizes.
// * On Backend::kSim the whole pipeline runs in virtual time and is
//   bitwise-deterministic: same seed + same submission sequence = same
//   release trace. On Backend::kRt it is thread-safe and the release hook
//   runs on whichever worker finishes a job.

#include <cstdint>
#include <string>

#include "core/dag.hpp"
#include "core/task_type.hpp"

namespace das {

/// What to do with a submit that would exceed the tenant's queued-task
/// budget (TenantConfig::max_queued_tasks).
enum class Overload : std::uint8_t {
  kReject = 0,  ///< admit nothing: wait() returns Outcome::kRejected (or
                ///< retries first, see TenantConfig::max_retries)
  kBlock,       ///< block the submitter until the backlog drains
};

/// One tenant's service contract. Passed to Executor::open_session().
struct TenantConfig {
  /// Label reported back in RunResult::tenant and bench output. Sessions
  /// may share a name; they remain distinct tenants.
  std::string name = "tenant";
  /// Fair-share weight (> 0): a weight-2 tenant is released twice the work
  /// of a weight-1 tenant while both are backlogged.
  double weight = 1.0;
  /// Max jobs this tenant may have RELEASED to the engine and not yet
  /// completed. Release throttle, never a rejection. 0 = unbounded.
  int max_in_flight = 4;
  /// Admission budget: max TASKS queued (admitted, not yet released). A
  /// submit that would exceed it hits the `overload` policy. 0 = unbounded.
  std::int64_t max_queued_tasks = 0;
  Overload overload = Overload::kReject;
  /// Retry policy for Overload::kReject bounces: instead of rejecting
  /// immediately, re-run the admission check after a capped exponential
  /// backoff (retry_backoff_s, 2x per attempt, capped at
  /// retry_backoff_cap_s) up to max_retries times; only then does the job
  /// come back Outcome::kRetriesExhausted. 0 = reject immediately (the
  /// pre-retry behavior). Backoff timers run on the engine clock — virtual
  /// time on Backend::kSim (deterministic), the wall-clock pacer on kRt.
  int max_retries = 0;
  double retry_backoff_s = 0.01;
  double retry_backoff_cap_s = 1.0;
};

/// Per-submission options (Executor::submit / Session::submit).
struct SubmitOptions {
  /// Release-no-earlier-than delay on the engine clock. The DES schedules
  /// it in virtual time; Backend::kRt paces it with a wall-clock timer
  /// thread inside the service layer (the engine itself still only takes
  /// offset-0 submissions). Overload::kBlock tenants require offset == 0 —
  /// a blocking admission decision cannot be deferred.
  double arrival_offset_s = 0.0;
  /// Release preference WITHIN the tenant's queue: higher goes first, ties
  /// in submission order. Does not affect cross-tenant fairness.
  int priority = 0;
  /// Queueing deadline, seconds from ARRIVAL on the engine clock: a session
  /// job still queued (not yet released to the engine) when it expires is
  /// cancelled and comes back Outcome::kTimedOut. Released jobs always run
  /// to completion — the deadline bounds waiting, not execution. 0 = none.
  /// Ignored for bare submits (they release immediately).
  double deadline_s = 0.0;
};

/// Throw PreconditionError for a config Executor::open_session refuses
/// (weight not > 0, a negative bound) or options Executor::submit refuses
/// (a negative arrival offset or deadline); a NaN fails too. The net server
/// runs them on decoded requests before they reach the executor.
void check_tenant_config(const TenantConfig& cfg);
void check_submit_options(const SubmitOptions& opts);

/// Service-wide options (ExecutorConfig::service).
struct ServiceConfig {
  /// Global cap on jobs released-but-not-completed across ALL tenants
  /// (bare submits bypass it). 0 = unbounded.
  int max_service_inflight = 0;
  /// DRR quantum: tasks credited per round to a weight-1.0 tenant. Larger
  /// = coarser interleaving (whole-burst alternation), smaller = finer
  /// (but a quantum far below the typical job size just adds rounds).
  std::int64_t drr_quantum_tasks = 32;
};

/// Monotonic per-tenant counters, snapshotted by Session::counters().
struct TenantCounters {
  std::int64_t submitted = 0;  ///< submit() calls accepted into the queue
  std::int64_t rejected = 0;   ///< submits bounced by Overload::kReject
  std::int64_t released = 0;   ///< jobs handed to the engine
  std::int64_t completed = 0;  ///< jobs finished by the engine
  std::int64_t released_tasks = 0;  ///< task-weighted released work
  std::int64_t timed_out = 0;  ///< jobs cancelled by SubmitOptions::deadline_s
  std::int64_t retries = 0;    ///< admission retries run (TenantConfig retry)
};

}  // namespace das
