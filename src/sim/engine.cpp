#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <tuple>

#include "core/cost_expr.hpp"
#include "platform/affinity.hpp"
#include "util/assert.hpp"

namespace das::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Polls a protocol thread makes at a barrier or at its command wait before
/// it parks, each followed by a sched_yield (util/sync_model.hpp): ~1 ms on
/// an x86 Linux guest. Window barriers on the sim_throughput halo shapes
/// wait microseconds, almost all under 1000 polls; the margin absorbs a
/// straggler's occasional preemption, and a thread whose peers are gone
/// for longer (the calling thread between pumps) still parks soon.
constexpr int kSpinPolls = 1 << 12;

// Runtime overheads of the modelled XiTAO-style worker, in virtual seconds.
constexpr double kDispatchOverheadS = 1e-6;  ///< dequeue -> assembly insertion
constexpr double kStealLatencyS = 2e-6;      ///< successful steal round-trip
/// Bookkeeping a finishing participant performs (PTT update, waking the
/// dependents) before it looks for new work. This matters: it gives a
/// just-released high-priority assembly time to reach the finisher's AQ, so
/// the finisher joins it instead of grabbing a low-priority child from its
/// own WSQ first (priority inversion).
constexpr double kCompletionOverheadS = 2e-6;
/// Idle workers back off (XiTAO-style sleep between failed steal sweeps), so
/// a task pushed while a core sleeps is noticed only after this delay. Busy
/// cores re-examine their queues immediately on completion.
constexpr double kIdleWakeDelayS = 200e-6;

}  // namespace

SimEngine::SimEngine(std::vector<RankSpec> ranks, Policy policy,
                     const TaskTypeRegistry& registry, SimOptions options)
    : registry_(&registry), options_(options),
      sync_(static_cast<int>(ranks.size())) {
  DAS_CHECK(!ranks.empty());
  const std::size_t num_ranks = ranks.size();
  ranks_.reserve(num_ranks);
  int next_core = 0;
  for (std::size_t r = 0; r < num_ranks; ++r) {
    DAS_CHECK(ranks[r].topo != nullptr);
    Rank rank;
    rank.topo = ranks[r].topo;
    rank.scenario = ranks[r].scenario;
    rank.first_core = next_core;
    rank.ptt = std::make_unique<PttStore>(*rank.topo, registry.size(),
                                          options_.ptt_ratio);
    rank.policy = std::make_unique<PolicyEngine>(
        policy, *rank.topo, rank.ptt.get(), options_.seed + 17 * (r + 1),
        options_.policy_options);
    rank.stats =
        std::make_unique<ExecutionStats>(*rank.topo, options_.stats_phases);
    next_core += rank.topo->num_cores();
    ranks_.push_back(std::move(rank));
  }

  // Per-rank shard arenas, every vector sized up front (the hot loops never
  // grow them mid-window). Rank 0's RNG stream IS the historical
  // single-engine stream — the determinism goldens pin it; other ranks get
  // independent streams derived from the same seed.
  shards_ = std::vector<Shard>(num_ranks);
  for (std::size_t r = 0; r < num_ranks; ++r) {
    Shard& sh = shards_[r];
    sh.rank = static_cast<int>(r);
    sh.num_cores = ranks_[r].topo->num_cores();
    sh.events.set_num_lanes(kNumLanes);
    sh.rng.reseed(r == 0 ? options_.seed
                         : options_.seed + 0x9e3779b97f4a7c15ULL *
                                               static_cast<std::uint64_t>(r));
    sh.cores.resize(static_cast<std::size_t>(sh.num_cores));
    const std::size_t words =
        (static_cast<std::size_t>(sh.num_cores) + 63) / 64;
    sh.idle_bits.assign(words, 0);
    sh.wsq_bits.assign(words, 0);
    // Every core starts idle (no pending event).
    for (int c = 0; c < sh.num_cores; ++c)
      sh.idle_bits[static_cast<std::size_t>(c) >> 6] |= std::uint64_t{1}
                                                        << (c & 63);
    if (num_ranks > 1) {
      for (auto& set : sh.out) {
        set.resize(num_ranks);
        for (std::size_t d = 0; d < num_ranks; ++d)
          if (d != r) set[d] = std::make_unique<BoundaryQueue<BoundaryMsg>>();
      }
    }
    // Seed the rank's fault schedule into its heap (kFault events carry the
    // schedule index in their job field). Without faults nothing is pushed
    // and faults_enabled_ stays false: the event and RNG streams are
    // byte-identical to the bare engine.
    if (ranks[r].faults != nullptr && !ranks[r].faults->empty()) {
      sh.faults = ranks[r].faults->events;
      faults_enabled_ = true;
      for (std::size_t i = 0; i < sh.faults.size(); ++i) {
        const CoreFault& f = sh.faults[i];
        DAS_CHECK_MSG(f.core >= 0 && f.core < sh.num_cores,
                      "fault core " + std::to_string(f.core) +
                          " out of range for rank " + std::to_string(r));
        DAS_CHECK_MSG(f.t_s >= 0.0, "fault onset must be >= 0");
        sh.events.push(f.t_s, Event{Ev::kFault, f.core,
                                    static_cast<JobId>(i), kInvalidNode, -1});
      }
    }
  }

  protocol_threads_ =
      num_ranks > 1
          ? std::clamp(options_.des_threads, 1, static_cast<int>(num_ranks))
          : 1;
  // The timeline sink is a single unsynchronized stream; parallel window
  // execution would interleave ranks' records nondeterministically.
  DAS_CHECK_MSG(options_.timeline == nullptr || protocol_threads_ == 1,
                "timeline recording requires des_threads <= 1");
  // Spin only while every protocol thread can hold a CPU of its own: with
  // more threads than CPUs a spinning waiter delays the very thread it
  // waits for.
  if (protocol_threads_ > 1 && protocol_threads_ <= allowed_cpu_count())
    sync_.set_spin_polls(kSpinPolls);
}

SimEngine::SimEngine(const Topology& topo, Policy policy,
                     const TaskTypeRegistry& registry, SimOptions options,
                     const SpeedScenario* scenario, const FaultPlan* faults)
    : SimEngine(std::vector<RankSpec>{RankSpec{&topo, scenario, faults}},
                policy, registry, options) {}

SimEngine::~SimEngine() {
  if (!workers_.empty()) {
    // Workers wait for the next pump command (every pump() leaves them
    // there); publish an exit command instead.
    cmd_exit_.store(true, std::memory_order_release);
    cmd_.store(++pumps_, std::memory_order_release);
    cmd_ec_.notify();
    for (std::thread& w : workers_) w.join();
  }
}

double SimEngine::Shard::next_event_time() const {
  return events.empty() ? kInf : events.top().time;
}

double SimEngine::now() const {
  double m = shards_[0].now;
  for (std::size_t r = 1; r < shards_.size(); ++r)
    m = std::max(m, shards_[r].now);
  return m;
}

std::uint64_t SimEngine::events_processed() const {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.events_processed;
  return n;
}

std::uint64_t SimEngine::events_processed(int rank) const {
  DAS_CHECK(rank >= 0 && rank < num_ranks());
  return shards_[static_cast<std::size_t>(rank)].events_processed;
}

std::uint64_t SimEngine::trace_hash(int rank) const {
  DAS_CHECK(rank >= 0 && rank < num_ranks());
  return shards_[static_cast<std::size_t>(rank)].trace_hash;
}

std::uint64_t SimEngine::tasks_reexecuted() const {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.tasks_reexecuted;
  return n;
}

int SimEngine::cores_failed() const {
  int n = 0;
  for (const Shard& sh : shards_) n += sh.cores_failed;
  return n;
}

bool SimEngine::events_pending() const {
  for (const Shard& sh : shards_)
    if (!sh.events.empty()) return true;
  return false;
}

SimEngine::Job& SimEngine::job_of(JobId id) {
  const std::int64_t idx = id - lookup_base_;
  DAS_CHECK_MSG(idx >= 0 &&
                    idx < static_cast<std::int64_t>(job_lookup_.size()) &&
                    job_lookup_[static_cast<std::size_t>(idx)] >= 0,
                "job " + std::to_string(id) + " is not in flight");
  return job_slots_[static_cast<std::size_t>(
      job_lookup_[static_cast<std::size_t>(idx)])];
}

std::uint64_t SimEngine::masked_word(const std::vector<std::uint64_t>& bits,
                                     int word, int lo, int hi) {
  std::uint64_t w = bits[static_cast<std::size_t>(word)];
  if (word == (lo >> 6)) w &= ~std::uint64_t{0} << (lo & 63);
  if (word == ((hi - 1) >> 6)) {
    const int top = hi - (word << 6);
    if (top < 64) w &= (std::uint64_t{1} << top) - 1;
  }
  return w;
}

ExecutionStats& SimEngine::stats(int rank) {
  DAS_CHECK(rank >= 0 && rank < num_ranks());
  return *ranks_[static_cast<std::size_t>(rank)].stats;
}

const ExecutionStats& SimEngine::stats(int rank) const {
  DAS_CHECK(rank >= 0 && rank < num_ranks());
  return *ranks_[static_cast<std::size_t>(rank)].stats;
}

PolicyEngine& SimEngine::policy(int rank) {
  DAS_CHECK(rank >= 0 && rank < num_ranks());
  return *ranks_[static_cast<std::size_t>(rank)].policy;
}

PttStore& SimEngine::ptt(int rank) {
  DAS_CHECK(rank >= 0 && rank < num_ranks());
  return *ranks_[static_cast<std::size_t>(rank)].ptt;
}

double SimEngine::completion_time(NodeId id) const {
  DAS_CHECK(id >= 0 && id < static_cast<NodeId>(last_waited_count_));
  return last_waited_tasks_[static_cast<std::size_t>(id)].completion;
}

double SimEngine::lognormal_noise(Shard& sh, double sigma) {
  if (sigma <= 0.0) return 1.0;
  // Marsaglia polar method on the shard's RNG — deterministic across
  // standard libraries, unlike std::normal_distribution.
  double u, v, s;
  do {
    u = sh.rng.uniform(-1.0, 1.0);
    v = sh.rng.uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double z = u * std::sqrt(-2.0 * std::log(s) / s);
  return std::exp(sigma * z);
}

JobId SimEngine::submit(const Dag& dag, double arrival_offset_s) {
  DAS_CHECK(dag.num_nodes() > 0);
  DAS_CHECK_MSG(arrival_offset_s >= 0.0,
                "submit: arrival offset must be >= 0");
  // Compact any staged edges into the CSR arena once, up front: the release
  // fan-out in handle_done then walks flat spans for the whole job.
  dag.seal();
  // Validation over the DAG's sealed metadata — O(#types + 1), not O(nodes),
  // and entirely before any engine state mutates, so a rejected DAG leaves
  // the engine untouched.
  for (const TaskTypeId t : dag.distinct_types()) {
    const TaskTypeInfo& ti = registry_->info(t);
    DAS_CHECK_MSG(ti.cost != nullptr ||
                      ti.expr.kind != CostExpr::Kind::kCallable,
                  "task type '" + ti.name +
                      "' has no cost model; the DES cannot execute it");
  }
  DAS_CHECK_MSG(dag.min_node_rank() >= 0 && dag.max_node_rank() < num_ranks(),
                "dag node rank out of range");
  // The conservative window lookahead tightens monotonically to the
  // smallest cross-rank delay any submitted job carries. Monotone-min (it
  // never relaxes when small-delay jobs retire) keeps the window partition
  // a pure function of the submission trace — window boundaries determine
  // cross-rank drain batching, so they must replay bitwise too.
  lookahead_ = std::min(lookahead_, dag.min_cross_rank_delay());

  const JobId id = next_job_++;
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::int32_t>(job_slots_.size());
    job_slots_.emplace_back();
    if (shards_.size() > 1) {
      for (Shard& sh : shards_) {
        sh.tally.resize(job_slots_.size());
        sh.tally_slots.reserve(job_slots_.size());
      }
    }
  }
  Job& job = job_slots_[static_cast<std::size_t>(slot)];
  job.dag = &dag;
  job.release_s = now() + arrival_offset_s;
  job.completed = 0;
  job.finish_s = -1.0;
  job.done = false;
  // Overwrite allocation, no initialization: every entry is reset by
  // make_ready, which each task passes exactly once before any other read
  // of its TaskState.
  const auto num_nodes = static_cast<std::size_t>(dag.num_nodes());
  if (job.tasks_cap < num_nodes) {
    job.tasks = std::make_unique_for_overwrite<TaskState[]>(num_nodes);
    job.tasks_cap = num_nodes;
  }
  const std::vector<std::int32_t>& pc = dag.predecessor_counts();
  job.preds.assign(pc.begin(), pc.end());

  DAS_ASSERT(id - lookup_base_ ==
             static_cast<std::int64_t>(job_lookup_.size()));
  job_lookup_.push_back(slot);
  ++live_jobs_;

  // Pre-size each shard's heap for the irregular events it still carries
  // (roots, pending completions, jittered wakes) — the steady-state
  // wake/release traffic lives in the FIFO lanes and needs no headroom.
  for (Shard& sh : shards_)
    sh.events.reserve(dag.root_ids().size() +
                      2 * static_cast<std::size_t>(sh.num_cores) + 64);

  // Release the roots "from" their rank's core 0 (or the affinity core),
  // in node order at the job's arrival instant, each into its owning
  // rank's shard. root_ids() is the sealed cache — only the roots are
  // touched, not the whole node array.
  for (const NodeId i : dag.root_ids()) {
    const DagNode& n = dag.node(i);
    DAS_CHECK_MSG(n.rank >= 0 && n.rank < num_ranks(),
                  "dag node rank out of range");
    const int local = n.affinity_core >= 0 ? n.affinity_core : 0;
    DAS_CHECK(local <
              ranks_[static_cast<std::size_t>(n.rank)].topo->num_cores());
    shards_[static_cast<std::size_t>(n.rank)].events.push(
        job.release_s, Event{Ev::kRoot, -1, id, i, local});
  }
  return id;
}

double SimEngine::wait(JobId id) {
  // Pump until THIS job completes. Events of other in-flight jobs that fall
  // before its completion execute on the way — the interleave is a pure
  // function of (seed, submission trace). A pump stops at every job
  // completion and notification; the job is re-resolved after each one
  // because a delivered hook may submit() and move job_slots_.
  while (!job_of(id).done) {
    if (!pump()) break;
  }
  Job& job = job_of(id);
  DAS_CHECK_MSG(job.done,
                "event queue drained with " +
                    std::to_string(job.dag->num_nodes() - job.completed) +
                    " tasks of job " + std::to_string(id) +
                    " incomplete (dependency deadlock?)");
  const double makespan = job.finish_s - job.release_s;
  // Elapsed accumulates the virtual time this wait advanced the clock by
  // (not the absolute clock): sequential runs still sum to now(), but after
  // an ExecutionStats::reset() the counters restart from zero instead of
  // silently re-including pre-reset time — matching the rt backend.
  const double now_s = now();
  for (auto& r : ranks_)
    r.stats->set_elapsed(r.stats->elapsed_s() + (now_s - elapsed_mark_));
  elapsed_mark_ = now_s;
  // Swap, not move: the retired job's slot keeps its grown tasks array, so
  // the next job reusing the slot writes into existing capacity.
  std::swap(last_waited_tasks_, job.tasks);
  std::swap(last_waited_cap_, job.tasks_cap);
  last_waited_count_ = static_cast<std::size_t>(job.dag->num_nodes());

  const auto idx = static_cast<std::size_t>(id - lookup_base_);
  free_slots_.push_back(job_lookup_[idx]);
  job_lookup_[idx] = -1;
  --live_jobs_;
  // Amortized dead-prefix trim keeps the lookup window proportional to the
  // in-flight span, not the total jobs ever submitted.
  while (lookup_dead_prefix_ < job_lookup_.size() &&
         job_lookup_[lookup_dead_prefix_] < 0)
    ++lookup_dead_prefix_;
  if (lookup_dead_prefix_ > 64 &&
      lookup_dead_prefix_ * 2 > job_lookup_.size()) {
    job_lookup_.erase(job_lookup_.begin(),
                      job_lookup_.begin() +
                          static_cast<std::ptrdiff_t>(lookup_dead_prefix_));
    lookup_base_ += static_cast<JobId>(lookup_dead_prefix_);
    lookup_dead_prefix_ = 0;
  }
  return makespan;
}

// daslint: begin-hot-path(sim-step)
// The event-loop inner step: one pop + one handler per simulated event; the
// policy hooks (core/policy.hpp) and the closed-form cost evaluation
// (core/cost_expr.hpp) inline into the handlers. tools/daslint forbids
// allocation, lock acquisition, parking and type-erased calls here (the
// handlers reuse per-core flat queues; see sim's throughput gate).
// Everything touched is shard-local: in parallel runs the shard's owning
// thread is the only caller, so this loop needs no atomics at all.
void SimEngine::step(Shard& sh) {
  // Direct pop: with the lane/heap queue a pop is one source scan plus an
  // O(1) ring pop for the dominant event classes — cheaper than staging
  // identical-time batches through a side buffer was.
  const EventQueue<Event>::Item item = sh.events.pop();
  ++sh.events_processed;
  DAS_ASSERT(item.time + 1e-12 >= sh.now);
  sh.now = std::max(sh.now, item.time);
  const Event& e = item.payload;
  if (options_.hash_traces) [[unlikely]] {
    // FNV-1a over the full event identity: equal per-rank hashes <=> the
    // runs took bitwise-identical per-rank event paths (the parallel-vs-
    // serial equality tests compare these).
    std::uint64_t h = sh.trace_hash;
    const auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
    fold(std::bit_cast<std::uint64_t>(item.time));
    fold(static_cast<std::uint64_t>(static_cast<std::uint8_t>(e.kind)));
    fold(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.core)) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.from_core))
          << 32));
    fold(static_cast<std::uint64_t>(e.job));
    fold(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.task)));
    sh.trace_hash = h;
  }
  if (faults_enabled_) [[unlikely]] {
    // Per-core events against a failed or frozen core: a dead core's stale
    // wakes/completions are dropped (its queued and in-flight work was
    // reclaimed at the kFault event); a frozen core makes no progress inside
    // its window, so its events re-materialize at the thaw instant.
    if (e.kind == Ev::kWake || e.kind == Ev::kDone) {
      const CoreState& cs = sh.cores[static_cast<std::size_t>(e.core)];
      if (cs.dead) return;
      if (sh.now < cs.frozen_until) {
        defer_frozen(sh, e, cs.frozen_until);
        return;
      }
    }
  }
  switch (e.kind) {
    case Ev::kWake:
      set_inactive(sh, e.core);
      handle_wake(sh, e.core, sh.now);
      break;
    case Ev::kDone:
      handle_done(sh, e, sh.now);
      break;
    case Ev::kRelease:
      handle_release(sh, e, sh.now);
      break;
    case Ev::kRoot:
      make_ready(sh, e.job, e.task, e.from_core, sh.now);
      break;
    case Ev::kTimer:
      note_timer_fired(sh, e, sh.now);
      break;
    case Ev::kFault:
      handle_fault(sh, e, sh.now);
      break;
  }
}
// daslint: end-hot-path

void SimEngine::note_timer_fired(Shard& sh, const Event& e, double t) {
  // Only the service layer schedules timers, so the hook is always present.
  DAS_ASSERT(timer_hook_);
  sh.deferred.push_back(
      Deferred{true, static_cast<std::uint64_t>(e.job), t});
  sh.yield = true;
}

// --- fail-stop / freeze machinery --------------------------------------------

void SimEngine::defer_frozen(Shard& sh, const Event& e, double until) {
  sh.events.push(until, e);
}

int SimEngine::live_fallback_core(const Shard& sh, int from) const {
  const int n = sh.num_cores;
  for (int i = 0; i < n; ++i) {
    const int c = (from + i) % n;
    if (!sh.cores[static_cast<std::size_t>(c)].dead) return c;
  }
  DAS_CHECK_MSG(false, "every core of rank " + std::to_string(sh.rank) +
                           " is dead; the fault plan must leave a survivor");
  return 0;
}

void SimEngine::requeue_lost(Shard& sh, JobId job_id, NodeId id, double t) {
  // Fresh attempt on the survivors. make_ready resets the TaskState (lost
  // counter included) and re-runs the wake path; the dead-core reroutes in
  // make_ready/distribute keep the new attempt off dead queues. Completion
  // stays exactly-once: the lost attempt recorded nothing — its remaining
  // kDone events belong to dead cores and are dropped in step.
  ++sh.tasks_reexecuted;
  make_ready(sh, job_id, id, /*waking_core=*/-1, t);
}

void SimEngine::reclaim_participation(Shard& sh, JobId job_id, NodeId id,
                                      double t) {
  Job& job = job_at(job_id);
  TaskState& ts = job.tasks[static_cast<std::size_t>(id)];
  ++ts.lost;
  DAS_ASSERT(ts.departures + ts.lost <= ts.place.width);
  // Live participants (queued or running) still hold slots; the last of
  // them triggers the re-release from handle_done. Only when none remain is
  // the fault event itself the last accountant.
  if (ts.departures + ts.lost == ts.place.width)
    requeue_lost(sh, job_id, id, t);
}

void SimEngine::handle_fault(Shard& sh, const Event& e, double t) {
  const CoreFault& f = sh.faults[static_cast<std::size_t>(e.job)];
  CoreState& cs = sh.cores[static_cast<std::size_t>(f.core)];
  if (f.kind == CoreFault::Kind::kFreeze) {
    if (!cs.dead) cs.frozen_until = std::max(cs.frozen_until, f.until_s);
    return;
  }
  if (cs.dead) return;  // overlapping fail-stop entries: first one wins
  cs.dead = true;
  ++sh.cores_failed;
  // Pin the core "active" with no pending event: activate() no-ops forever
  // and the idle-bitmap sweep skips it, so no new wake can ever target it.
  set_active(sh, f.core);

  // Re-home the queued-but-undistributed work. These tasks already passed
  // make_ready (their TaskState is live), so they move queue-to-queue: the
  // place decision happens later, at distribution, where dead members are
  // degraded away. FIFO order keeps the re-home deterministic.
  bool rehomed_stealable = false;
  while (!cs.inbox.empty()) {
    const QueuedTask qt = cs.inbox.front();
    cs.inbox.pop_front();
    const int target = live_fallback_core(sh, f.core);
    sh.cores[static_cast<std::size_t>(target)].inbox.push_back(qt);
    activate(sh, target, t, /*direct=*/true);
  }
  while (!cs.wsq.empty()) {
    const QueuedTask qt = cs.wsq.front();
    cs.wsq.pop_front();
    const int target = live_fallback_core(sh, f.core);
    wsq_push(sh, target, qt);
    activate(sh, target, t);
    rehomed_stealable = true;
  }
  wsq_mark_if_empty(sh, f.core);
  if (rehomed_stealable) wake_idle_cores(sh, t);

  // Account the lost participations: assembly slots queued in the dead
  // core's AQ plus the one it was executing. Each may be the last
  // outstanding slot of its task, in which case the task re-releases here.
  while (!cs.aq.empty()) {
    const Participation p = cs.aq.front();
    cs.aq.pop_front();
    reclaim_participation(sh, p.job, p.task, t);
  }
  if (cs.busy) {
    cs.busy = false;
    reclaim_participation(sh, cs.running.job, cs.running.task, t);
  }
}

void SimEngine::set_service_hooks(
    std::function<void(JobId, double)> job_done,
    std::function<void(std::uint64_t, double)> timer) {
  DAS_CHECK_MSG(job_done && timer, "set_service_hooks: both hooks required");
  job_done_hook_ = std::move(job_done);
  timer_hook_ = std::move(timer);
  for (Shard& sh : shards_) sh.deferred.reserve(64);
}

void SimEngine::schedule_timer(double offset_s, std::uint64_t token) {
  DAS_CHECK_MSG(timer_hook_ != nullptr,
                "schedule_timer: install service hooks first");
  DAS_CHECK_MSG(offset_s >= 0.0, "schedule_timer: offset must be >= 0");
  // Timers live on rank 0's event stream; now() >= shard 0's clock, so the
  // push never lands in shard 0's past.
  shards_[0].events.push(now() + offset_s,
                         Event{Ev::kTimer, -1, static_cast<JobId>(token),
                               kInvalidNode, -1});
}

bool SimEngine::pump(double horizon_s) {
  if (!events_pending()) return false;
  advance(horizon_s);
  deliver_deferred();
  return true;
}

void SimEngine::deliver_deferred() {
  // Deliver deferred notifications AFTER the handler frames unwound: the
  // hooks may submit() or schedule_timer() (job_slots_/event-queue
  // mutation), which must not run under the live Job& a handler holds.
  // Order: (virtual time, JobId or timer token). Multi-rank, the shard that
  // records a job's notification is whichever folded its last count, which
  // depends on thread timing; the sort makes the order a function of the
  // simulation alone. A single-rank pump stops at its first notification.
  std::vector<Deferred>& list = shards_[0].deferred;
  for (std::size_t r = 1; r < shards_.size(); ++r) {
    std::vector<Deferred>& other = shards_[r].deferred;
    list.insert(list.end(), other.begin(), other.end());
    other.clear();
  }
  std::sort(list.begin(), list.end(), [](const Deferred& a, const Deferred& b) {
    return std::tie(a.time, a.id, a.timer) < std::tie(b.time, b.id, b.timer);
  });
  for (const Deferred& d : list) {
    if (d.timer)
      timer_hook_(d.id, d.time);
    else
      job_done_hook_(static_cast<JobId>(d.id), d.time);
  }
  list.clear();
}

void SimEngine::activate(Shard& sh, int core, double at, bool direct) {
  if (sh.cores[static_cast<std::size_t>(core)].active) return;
  set_active(sh, core);
  if (direct) {
    // Explicit wake signal (steal-exempt placement): immediate.
    sh.events.push_lane(kLaneImmediate, at,
                        Event{Ev::kWake, core, kInvalidJob, kInvalidNode, -1});
    return;
  }
  // An inactive core is an idle worker in backoff sleep; it notices the new
  // work after the wake delay. The delay is jittered (uniform in
  // [0.5, 1.5] x nominal): each sleeper is at a random point of its backoff
  // period, which is also what keeps the steal race unbiased — with a fixed
  // delay, ties resolve FIFO and the lowest-numbered idle core would always
  // win the race (cores 3..5 would never work at low DAG parallelism).
  const double jitter = 0.5 + sh.rng.uniform();
  sh.events.push(at + kIdleWakeDelayS * jitter,
                 Event{Ev::kWake, core, kInvalidJob, kInvalidNode, -1});
}

void SimEngine::wake_idle_cores(Shard& sh, double t) {
  const int hi = sh.num_cores;
  for (int w = 0; w <= (hi - 1) >> 6; ++w) {
    // Snapshot the word: activate() only CLEARS bits (of the core being
    // woken), so iterating the snapshot visits exactly the cores that were
    // idle when the sweep began — the same set, in the same ascending
    // order, as the old activate-every-core scan.
    std::uint64_t bits = masked_word(sh.idle_bits, w, 0, hi);
    while (bits != 0) {
      const int core = (w << 6) + std::countr_zero(bits);
      bits &= bits - 1;
      activate(sh, core, t);
    }
  }
}

void SimEngine::make_ready(Shard& sh, JobId job_id, NodeId id,
                           int waking_core, double t) {
  Job& job = job_at(job_id);
  const DagNode& n = node_of(job, id);
  // Live check, not just the sealed-metadata snapshot submit saw: a caller
  // that mutates node ranks on an already-sealed DAG must get a thrown
  // precondition here — in the sharded engine every event must execute on
  // the rank that owns its node.
  DAS_CHECK_MSG(n.rank == sh.rank, "dag node rank out of range");
  TaskState& ts = job.tasks[static_cast<std::size_t>(id)];
  ts = TaskState{};  // first touch of this task: clear recycled slot state
  // Per-task invariant, resolved once: every participant's cost evaluation
  // and noise-sigma lookup read this row instead of re-walking the registry.
  ts.type_info = &registry_->info(n.type);
  Rank& rank = ranks_[static_cast<std::size_t>(sh.rank)];

  // Releases crossing ranks carry kRemoteWaker and land on the task's
  // affinity core (or core 0 of its rank): a remote completion cannot name
  // another process's queues. Local wakers arrive as shard-local core ids.
  const int local_waker =
      waking_core >= 0 ? waking_core
                       : (n.affinity_core >= 0 ? n.affinity_core : 0);

  const WakeDecision wd =
      rank.policy->on_ready(n.type, n.priority, local_waker);
  int queue_core = wd.queue_core;
  if (faults_enabled_) [[unlikely]] {
    // A dead core's queues are permanently unreachable; reroute to the next
    // survivor (deterministic: pure function of the dead set).
    if (sh.cores[static_cast<std::size_t>(queue_core)].dead)
      queue_core = live_fallback_core(sh, queue_core);
  }

  if (wd.has_fixed_place) {
    ts.has_fixed_place = true;
    ts.place = wd.fixed_place;
  } else if (!options_.policy_options.remold_on_dequeue &&
             rank.policy->traits().uses_ptt) {
    // Ablation: decide the width at wake-up and never re-mold.
    ts.has_fixed_place = true;
    ts.place = rank.policy->on_execute(n.type, n.priority, wd.queue_core);
  }

  if (wd.stealable) {
    wsq_push(sh, queue_core, QueuedTask{job_id, id});
    // The new task is visible to thieves: give every idle core of the rank a
    // chance to grab it (they re-idle immediately if they lose the race).
    activate(sh, queue_core, t);
    wake_idle_cores(sh, t);
  } else {
    sh.cores[static_cast<std::size_t>(queue_core)].inbox.push_back(
        QueuedTask{job_id, id});
    activate(sh, queue_core, t, /*direct=*/true);
  }
}

void SimEngine::distribute(Shard& sh, Job& job, JobId job_id, NodeId id,
                           const ExecutionPlace& place, double t) {
  const Rank& r = ranks_[static_cast<std::size_t>(sh.rank)];
  DAS_CHECK_MSG(r.topo->is_valid_place(place),
                "policy produced invalid place " + to_string(place));
  ExecutionPlace p = place;
  if (faults_enabled_) [[unlikely]] {
    // Degrade a place containing dead members to a width-1 survivor: a
    // participation pushed onto a dead core's AQ would be lost on arrival.
    // Deterministic (function of the dead set); width-1 places are always
    // valid.
    for (int i = 0; i < p.width; ++i) {
      if (sh.cores[static_cast<std::size_t>(p.leader + i)].dead) {
        p = ExecutionPlace{live_fallback_core(sh, p.leader), 1};
        break;
      }
    }
  }
  TaskState& ts = job.tasks[static_cast<std::size_t>(id)];
  ts.place = p;
  ts.has_fixed_place = true;
  for (int i = 0; i < p.width; ++i) {
    const int core = p.leader + i;
    sh.cores[static_cast<std::size_t>(core)].aq.push_back(
        Participation{job_id, id, i});
    activate(sh, core, t + kDispatchOverheadS);
  }
}

double SimEngine::participation_cost(Shard& sh, const Job& job, NodeId id,
                                     int core, int rank_in_assembly,
                                     double t) {
  const DagNode& n = node_of(job, id);
  const TaskState& ts = job.tasks[static_cast<std::size_t>(id)];
  const Rank& r = ranks_[static_cast<std::size_t>(sh.rank)];
  const Cluster& cluster = r.topo->cluster_of_core(core);

  CostQuery q;
  q.place = ts.place;
  q.rank = rank_in_assembly;
  q.core = core;
  q.cluster = &cluster;
  if (r.scenario != nullptr) {
    q.speed = r.scenario->speed(core, t);
    q.bw_share = r.scenario->bandwidth_share(r.topo->cluster_index_of(core), t);
  } else {
    q.speed = cluster.base_speed;
    q.bw_share = 1.0;
  }

  // Hoisted per-task invariant (make_ready cached the registry row): the
  // per-participant path is the query build + the cost arithmetic itself.
  const TaskTypeInfo& info = *ts.type_info;
  double cost = cost_eval(info, n.params, q);
  if (options_.noise) {
    cost *= lognormal_noise(sh, TaskTypeRegistry::noise_sigma_of(info, cost));
  }
  return std::max(cost, 1e-9);
}

void SimEngine::start_participation(Shard& sh, int core,
                                    const Participation& p, double t) {
  CoreState& cs = sh.cores[static_cast<std::size_t>(core)];
  DAS_CHECK_MSG(!cs.busy, "core double-booked: a participation started while "
                          "another is still running");
  Job& job = job_at(p.job);
  TaskState& ts = job.tasks[static_cast<std::size_t>(p.task)];
  const double cost =
      participation_cost(sh, job, p.task, core, p.rank_in_assembly, t);
  ts.max_cost = std::max(ts.max_cost, cost);
  const Rank& r = ranks_[static_cast<std::size_t>(sh.rank)];
  r.stats->record_busy_st(core, static_cast<std::int64_t>(cost * 1e9));
  // Timeline bookkeeping (node lookup, type-name resolution) is hoisted
  // behind the null check: the common timeline-less run pays nothing. The
  // recorded core id is global (first_core + local) so multi-rank traces
  // keep one row per physical core.
  if (options_.timeline != nullptr) {
    const DagNode& n = node_of(job, p.task);
    options_.timeline->record(r.first_core + core, t, cost,
                              registry_->info(n.type).name, n.priority,
                              ts.place.width);
  }
  set_active(sh, core);
  cs.busy = true;
  cs.running = p;  // lets a core-death event reclaim the in-flight task
  sh.events.push(t + cost, Event{Ev::kDone, core, p.job, p.task, -1});
}

bool SimEngine::try_steal(Shard& sh, int core, double t) {
  const Rank& r = ranks_[static_cast<std::size_t>(sh.rank)];
  const int hi = sh.num_cores;
  const int self_word = core >> 6;
  const std::uint64_t self_mask = ~(std::uint64_t{1} << (core & 63));

  // Victim count by bit rank over the occupancy bitmap — the same count,
  // and below the same k-th victim in ascending core order, that the old
  // scan-and-collect vector produced, so the seeded RNG stream (and with it
  // every virtual-time result) is unchanged.
  int n_victims = 0;
  for (int w = 0; w <= (hi - 1) >> 6; ++w) {
    std::uint64_t bits = masked_word(sh.wsq_bits, w, 0, hi);
    if (w == self_word) bits &= self_mask;
    n_victims += std::popcount(bits);
  }
  if (n_victims == 0) return false;

  std::size_t k = sh.rng.below(static_cast<std::size_t>(n_victims));
  int victim = -1;
  for (int w = 0; w <= (hi - 1) >> 6; ++w) {
    std::uint64_t bits = masked_word(sh.wsq_bits, w, 0, hi);
    if (w == self_word) bits &= self_mask;
    const auto pc = static_cast<std::size_t>(std::popcount(bits));
    if (k < pc) {
      for (; k > 0; --k) bits &= bits - 1;  // drop k lowest set bits
      victim = (w << 6) + std::countr_zero(bits);
      break;
    }
    k -= pc;
  }
  DAS_ASSERT(victim >= 0);

  CoreState& vs = sh.cores[static_cast<std::size_t>(victim)];
  const QueuedTask qt = vs.wsq.front();  // thieves take the oldest task
  vs.wsq.pop_front();
  wsq_mark_if_empty(sh, victim);

  Job& job = job_at(qt.job);
  const DagNode& n = node_of(job, qt.task);
  TaskState& ts = job.tasks[static_cast<std::size_t>(qt.task)];
  const ExecutionPlace place =
      ts.has_fixed_place ? ts.place
                         : r.policy->on_execute(n.type, n.priority, core);
  // Mark the thief active first (one pending wake), then distribute after
  // the steal round-trip.
  set_active(sh, core);
  sh.events.push_lane(
      kLaneSteal, t + kStealLatencyS + kDispatchOverheadS,
      Event{Ev::kWake, core, kInvalidJob, kInvalidNode, -1});
  distribute(sh, job, qt.job, qt.task, place, t + kStealLatencyS);
  return true;
}

void SimEngine::handle_wake(Shard& sh, int core, double t) {
  CoreState& cs = sh.cores[static_cast<std::size_t>(core)];

  // 1. Assembly queue first: committed work.
  if (!cs.aq.empty()) {
    const Participation p = cs.aq.front();
    cs.aq.pop_front();
    start_participation(sh, core, p, t);
    return;
  }
  const Rank& r = ranks_[static_cast<std::size_t>(sh.rank)];
  // 2. Steal-exempt inbox: high-priority tasks with fixed places.
  if (!cs.inbox.empty()) {
    const QueuedTask qt = cs.inbox.front();
    cs.inbox.pop_front();
    Job& job = job_at(qt.job);
    const TaskState& ts = job.tasks[static_cast<std::size_t>(qt.task)];
    DAS_ASSERT(ts.has_fixed_place);
    // Mark THIS core active (single pending wake) before distribute() tries
    // to activate the participants — otherwise the distributor would get a
    // second wake event and could double-book itself.
    set_active(sh, core);
    sh.events.push_lane(kLaneDispatch, t + kDispatchOverheadS,
                        Event{Ev::kWake, core, kInvalidJob, kInvalidNode, -1});
    distribute(sh, job, qt.job, qt.task, ts.place, t);
    return;
  }
  // 3. Own WSQ (LIFO end).
  if (!cs.wsq.empty()) {
    const QueuedTask qt = cs.wsq.back();
    cs.wsq.pop_back();
    wsq_mark_if_empty(sh, core);
    Job& job = job_at(qt.job);
    const DagNode& n = node_of(job, qt.task);
    const TaskState& ts = job.tasks[static_cast<std::size_t>(qt.task)];
    const ExecutionPlace place =
        ts.has_fixed_place ? ts.place
                           : r.policy->on_execute(n.type, n.priority, core);
    set_active(sh, core);  // see the inbox branch: one pending wake only
    sh.events.push_lane(kLaneDispatch, t + kDispatchOverheadS,
                        Event{Ev::kWake, core, kInvalidJob, kInvalidNode, -1});
    distribute(sh, job, qt.job, qt.task, place, t);
    return;
  }
  // 4. Steal from a random victim within the rank.
  if (try_steal(sh, core, t)) return;
  // 5. Nothing anywhere: go idle. A future push will re-activate us.
}

void SimEngine::handle_done(Shard& sh, const Event& e, double t) {
  Job& job = job_at(e.job);
  const NodeId id = e.task;
  const DagNode& n = node_of(job, id);
  TaskState& ts = job.tasks[static_cast<std::size_t>(id)];
  Rank& r = ranks_[static_cast<std::size_t>(sh.rank)];

  ts.departures++;
  DAS_ASSERT(ts.departures + ts.lost <= ts.place.width);
  if (faults_enabled_ && ts.lost > 0) [[unlikely]] {
    // This attempt lost participants to a core death: it can never complete
    // (departures can no longer reach width). The last live finisher
    // re-releases the task to the survivors; the completion bookkeeping
    // below belongs to the fresh attempt, which starts from a reset
    // TaskState.
    if (ts.departures + ts.lost == ts.place.width)
      requeue_lost(sh, e.job, e.task, t);
    CoreState& finisher = sh.cores[static_cast<std::size_t>(e.core)];
    DAS_ASSERT(finisher.busy);
    finisher.busy = false;
    set_active(sh, e.core);
    sh.events.push_lane(kLaneCompletion, t + kCompletionOverheadS,
                        Event{Ev::kWake, e.core, kInvalidJob, kInvalidNode, -1});
    return;
  }
  if (ts.departures == ts.place.width) {
    // Last finisher: train the PTT and release successors (paper Fig. 3
    // step 8). The PTT learns the task's intrinsic duration at this place —
    // the slowest participant's busy time, which is what the paper's leader
    // core observes — NOT the assembly span: the span includes arrival skew
    // (participants queueing behind other work), which would make wide
    // places look slow for reasons that have nothing to do with the place.
    r.policy->record_sample(n.type, ts.place, ts.max_cost);
    const int place_id = r.topo->place_id(ts.place);
    r.stats->record_task_at_st(n.priority, place_id, n.phase);
    ts.completion = t;
    if (shards_.size() == 1) {
      // Single-rank: the historical plain-field path, byte-for-byte.
      job.completed++;
      // Release fan-out over the sealed CSR arena: a flat span walk, no
      // per-node vector indirection. The overwhelmingly common zero-delay
      // edge releases at `t` exactly — FIFO-lane territory; only delayed
      // edges pay the heap.
      for (const DagEdge& edge : job.dag->successors(id)) {
        const Event rel{Ev::kRelease, -1, e.job, edge.to, e.core};
        if (edge.delay_s == 0.0) {
          sh.events.push_lane(kLaneImmediate, t, rel);
        } else {
          sh.events.push(t + edge.delay_s, rel);
        }
      }
      if (job.completed == job.dag->num_nodes()) {
        job.done = true;
        job.finish_s = t;
        sh.yield = true;
        if (job_done_hook_)
          sh.deferred.push_back(
              Deferred{false, static_cast<std::uint64_t>(e.job), t});
      }
    } else {
      // Multi-rank: rank-local releases stay on this shard; cross-rank
      // releases are STAGED into the destination's boundary queue (drained
      // at the next window-phase boundary in sender-rank order — never
      // pushed into another shard's live event queue).
      for (const DagEdge& edge : job.dag->successors(id)) {
        const int target = job.dag->node(edge.to).rank;
        if (target == sh.rank) {
          const Event rel{Ev::kRelease, -1, e.job, edge.to, e.core};
          if (edge.delay_s == 0.0) {
            sh.events.push_lane(kLaneImmediate, t, rel);
          } else {
            sh.events.push(t + edge.delay_s, rel);
          }
        } else {
          const double at = t + edge.delay_s;
          sh.out[sh.parity][static_cast<std::size_t>(target)]->push(BoundaryMsg{
              at, Event{Ev::kRelease, -1, e.job, edge.to, kRemoteWaker}});
          sh.staged_min = std::min(sh.staged_min, at);
        }
      }
      // Completion accounting stays shard-local until the window's fold
      // (fold_completions): no shared RMW per task.
      const auto slot = static_cast<std::size_t>(&job - job_slots_.data());
      CompletionTally& tally = sh.tally[slot];
      if (tally.completed++ == 0) {
        tally.job = e.job;
        sh.tally_slots.push_back(static_cast<std::int32_t>(slot));
      }
      tally.finish_s = std::max(tally.finish_s, t);
    }
  }

  // The participant core looks for new work after the completion
  // bookkeeping (see kCompletionOverheadS).
  CoreState& cs = sh.cores[static_cast<std::size_t>(e.core)];
  DAS_ASSERT(cs.busy);
  cs.busy = false;
  set_active(sh, e.core);
  sh.events.push_lane(kLaneCompletion, t + kCompletionOverheadS,
                      Event{Ev::kWake, e.core, kInvalidJob, kInvalidNode, -1});
}

void SimEngine::handle_release(Shard& sh, const Event& e, double t) {
  Job& job = job_at(e.job);
  std::int32_t& preds = job.preds[static_cast<std::size_t>(e.task)];
  DAS_ASSERT(preds > 0);
  if (--preds == 0) make_ready(sh, e.job, e.task, e.from_core, t);
}

// --- pump loops --------------------------------------------------------------

void SimEngine::advance(double horizon) {
  if (shards_.size() == 1) {
    Shard& sh = shards_[0];
    sh.yield = false;
    while (!sh.events.empty()) {
      step(sh);
      if (sh.yield || sh.now > horizon) return;
    }
    return;
  }
  // Multi-rank: between pumps the calling thread owns every shard (the
  // workers wait for a command), so the first window start is read straight
  // off the queues — the value the previous window's bounds would have
  // given, had no hook submitted since.
  double w = kInf;
  for (Shard& sh : shards_) {
    sh.yield = false;
    w = std::min(w, sh.next_event_time());
  }
  DAS_ASSERT(w != kInf);  // pump() checked events_pending()
  first_window_hi_ = w + lookahead_;  // +inf lookahead: one window drains all
  pump_horizon_ = horizon;
  if (protocol_threads_ > 1) {
    ensure_workers();
    // One command per pump: the release publishes the fields above (and
    // everything this thread wrote since the last pump) to the workers.
    cmd_.store(++pumps_, std::memory_order_release);
    cmd_ec_.notify();
  }
  windows_ = window_loop(0);
  // Every thread left the loop right after the last window's barrier,
  // without touching a shard again: this thread owns them all and drains
  // that window's staged releases itself, in the same per-receiver sender
  // order the threads would have used.
  const int parity = static_cast<int>(windows_ & 1);
  for (Shard& sh : shards_) drain_inbound(sh, parity);
}

std::uint64_t SimEngine::window_loop(int thread_index) {
  const auto [lo, hi] = rank_block(thread_index);
  const double horizon = pump_horizon_;
  double window_hi = first_window_hi_;
  for (std::uint64_t k = windows_ + 1;; ++k) {
    const int parity = static_cast<int>(k & 1);
    for (int r = lo; r < hi; ++r) {
      Shard& sh = shards_[static_cast<std::size_t>(r)];
      window_phase1(sh, window_hi, parity);
      // The rank's lower bound on the next window start: everything it
      // will hold after the drain is either already queued locally or was
      // staged by it or another rank this window — the min over all
      // ranks' bounds is exactly the next window start.
      sync_.arrive(r, k, std::min(sh.next_event_time(), sh.staged_min),
                   sh.yield || sh.now > horizon);
    }
    sync_.wait_all_at_least(k);
    const RankSync::Round next = sync_.collect(k);
    if (next.stop || next.next_start == kInf) return k;
    for (int r = lo; r < hi; ++r)
      drain_inbound(shards_[static_cast<std::size_t>(r)], parity);
    window_hi = next.next_start + lookahead_;
  }
}

// daslint: begin-hot-path(rank-window)
// The per-rank window loop: pure shard-local event processing between two
// barriers. No allocation, no locks, no parking — a rank that blocks here
// stalls every other rank at the next barrier.
void SimEngine::window_phase1(Shard& sh, double hi, int parity) {
  sh.parity = parity;
  sh.staged_min = kInf;
  // INCLUSIVE horizon: with zero lookahead the window degenerates to
  // [W, W] and the protocol still advances one timestamp per round.
  while (!sh.events.empty() && sh.events.top().time <= hi) step(sh);
  if (!sh.tally_slots.empty()) fold_completions(sh);
}
// daslint: end-hot-path

void SimEngine::fold_completions(Shard& sh) {
  for (const std::int32_t slot : sh.tally_slots) {
    CompletionTally& tally = sh.tally[static_cast<std::size_t>(slot)];
    Job& job = job_slots_[static_cast<std::size_t>(slot)];
    // finish_s is the MAX over completion instants — order-free, so
    // schedule-independent; the atomic-max CAS publishes it, and the
    // acq_rel counter RMW makes every earlier fold's CAS visible to
    // whichever shard lands the final count.
    std::atomic_ref<double> fin(job.finish_s);
    double prev = fin.load(std::memory_order_acquire);
    while (prev < tally.finish_s &&
           !fin.compare_exchange_weak(prev, tally.finish_s,
                                      std::memory_order_release,
                                      std::memory_order_acquire)) {
    }
    std::atomic_ref<std::int64_t> completed(job.completed);
    const std::int64_t before =
        completed.fetch_add(tally.completed, std::memory_order_acq_rel);
    if (before + tally.completed == job.dag->num_nodes()) {
      const double finish = fin.load(std::memory_order_acquire);
      std::atomic_ref<bool>(job.done).store(true, std::memory_order_release);
      sh.yield = true;
      if (job_done_hook_)
        sh.deferred.push_back(
            Deferred{false, static_cast<std::uint64_t>(tally.job), finish});
    }
    tally = CompletionTally{};
  }
  sh.tally_slots.clear();
}

void SimEngine::drain_inbound(Shard& sh, int parity) {
  // Drain in-bound boundary links in SENDER-RANK order, FIFO within each
  // link: the receiving queue's seq assignment — and with it every
  // same-time tie-break — is a pure function of the event streams,
  // independent of which thread ran which rank when. All staged messages
  // carry time >= W + L >= this shard's clock, so nothing lands in the
  // shard's past (step asserts this).
  const int nr = num_ranks();
  for (int s = 0; s < nr; ++s) {
    if (s == sh.rank) continue;
    shards_[static_cast<std::size_t>(s)]
        .out[parity][static_cast<std::size_t>(sh.rank)]
        ->drain([&sh](const BoundaryMsg& m) { sh.events.push(m.time, m.ev); });
  }
}

void SimEngine::ensure_workers() {
  if (!workers_.empty()) return;
  workers_.reserve(static_cast<std::size_t>(protocol_threads_ - 1));
  for (int t = 1; t < protocol_threads_; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
}

std::pair<int, int> SimEngine::rank_block(int thread_index) const {
  const int nr = num_ranks();
  return {thread_index * nr / protocol_threads_,
          (thread_index + 1) * nr / protocol_threads_};
}

void SimEngine::worker_loop(int thread_index) {
  for (std::uint64_t pump = 1;; ++pump) {
    cmd_ec_.await(
        [&] { return cmd_.load(std::memory_order_acquire) >= pump; },
        sync_.spin_polls());
    if (cmd_exit_.load(std::memory_order_acquire)) return;
    window_loop(thread_index);
  }
}

}  // namespace das::sim
