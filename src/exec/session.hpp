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
//   submit ──► per-tenant FIFO ──► DRR release ──► engine submit_job
//              (admission:          (weighted fair
//               queued-task budget)  release, bounded
//                                    in-flight)
//
// * Admission is checked at ARRIVAL against `max_queued_tasks`: a job that
//   would take the tenant's queue over budget is rejected — its RunResult
//   comes back Outcome::kRejected without engine cost. Admitted jobs wait
//   in the tenant's FIFO in submission order.
// * Release is paced by deficit round-robin: each needy tenant is credited
//   `weight` x 32 tasks per round and releases whole jobs while its
//   deficit covers their task counts, subject to `max_in_flight` (its own
//   bound) and `max_service_inflight` (the global bound). Long-run
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
  /// submit that would exceed it is rejected. 0 = unbounded.
  std::int64_t max_queued_tasks = 0;
};

/// Per-submission options (Executor::submit / Session::submit).
struct SubmitOptions {
  /// Release-no-earlier-than delay on the engine clock. The DES schedules
  /// it in virtual time; Backend::kRt paces it with a wall-clock timer
  /// thread inside the service layer (the engine itself still only takes
  /// offset-0 submissions). A session job's admission check runs at
  /// arrival.
  double arrival_offset_s = 0.0;
};

/// Throw PreconditionError for a config Executor::open_session refuses
/// (weight not > 0, a negative bound) or options Executor::submit refuses
/// (a negative arrival offset); a NaN fails too. The net server runs them
/// on decoded requests before they reach the executor.
void check_tenant_config(const TenantConfig& cfg);
void check_submit_options(const SubmitOptions& opts);

/// Service-wide options (ExecutorConfig::service).
struct ServiceConfig {
  /// Global cap on jobs released-but-not-completed across ALL tenants
  /// (bare submits bypass it). 0 = unbounded.
  int max_service_inflight = 0;
};

/// Monotonic per-tenant counters, snapshotted by Session::counters().
struct TenantCounters {
  std::int64_t submitted = 0;  ///< submit() calls accepted into the queue
  std::int64_t rejected = 0;   ///< submits over the queued-task budget
  std::int64_t released = 0;   ///< jobs handed to the engine
  std::int64_t completed = 0;  ///< jobs finished by the engine
  std::int64_t released_tasks = 0;  ///< task-weighted released work
};

}  // namespace das
