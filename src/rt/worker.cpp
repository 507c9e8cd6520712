#include <thread>

#include "core/cost_expr.hpp"
#include "rt/runtime.hpp"
#include "util/assert.hpp"
#include "util/spinlock.hpp"  // cpu_relax
#include "util/time.hpp"

namespace das::rt {

namespace {

/// Idle protocol (rt/runtime.hpp gives the rationale): after a failed
/// progress round a worker pauses briefly, kSpinRoundsBeforePark times;
/// then, only if spin_when_idle_ (the pool fits the CPU mask), it keeps
/// running rounds with a sched_yield after each for at most kYieldPollNs;
/// then it parks on its eventcount. The bound is wall time, not a round
/// count, so a worker that the OS keeps descheduled still parks on time,
/// and an idle pool burns at most one such window per worker.
constexpr int kSpinRoundsBeforePark = 2;
constexpr std::int64_t kYieldPollNs = 1'000'000;

/// Victims a thief probes per progress round before backing off.
constexpr int kStealAttemptsPerRound = 4;

}  // namespace

void Runtime::worker_loop(int core) {
  Worker& self = *workers_[static_cast<std::size_t>(core)];

  int idle_rounds = 0;
  std::int64_t polling_since_ns = 0;  // start of the current stage 2
  for (;;) {
    if (faults_armed_) [[unlikely]] {
      // Fault checks happen only here, at a loop top — never mid-task — so
      // a planned fail-stop loses queued work but no in-flight
      // participation (rt/watchdog.cpp). in_round brackets the progress
      // round: a worker blocked in run_work is exempt from the wedge scan,
      // and conversely any worker with in_round == false provably holds no
      // queue pop, which is what licenses a forced takeover.
      self.in_round.store(false, std::memory_order_seq_cst);
      self.heartbeat.fetch_add(1, std::memory_order_relaxed);
      const std::uint8_t fs = self.fault_state.load(std::memory_order_acquire);
      if (fs == kWedgeRequested) {
        wedge_self();
        return;
      }
      if (fs == kQuarantineRequested || fs == kQuarantined) {
        quarantine_self(core);
        return;
      }
      const std::int64_t thaw =
          self.freeze_until_ns.load(std::memory_order_acquire);
      if (thaw > now_ns()) {
        freeze_self(core, thaw);
        continue;
      }
      self.in_round.store(true, std::memory_order_seq_cst);
    }
    if (try_make_progress(core)) {
      idle_rounds = 0;
      continue;
    }
    if (faults_armed_) [[unlikely]]
      self.in_round.store(false, std::memory_order_seq_cst);
    if (++idle_rounds <= kSpinRoundsBeforePark) {
      for (int i = 0; i < 64; ++i) cpu_relax();
      continue;
    }
    if (spin_when_idle_ && !shutdown_.load(std::memory_order_relaxed)) {
      const std::int64_t now = now_ns();
      if (idle_rounds == kSpinRoundsBeforePark + 1) polling_since_ns = now;
      if (now - polling_since_ns < kYieldPollNs) {
        std::this_thread::yield();
        continue;
      }
    }
    idle_rounds = 0;

    // Park. Three-phase eventcount protocol (util/eventcount.hpp):
    // announce intent, publish the parked bit, THEN re-check for work.
    // Producers push first and signal after, so either the re-check sees
    // their task or their notify sees this waiter — no lost wake-up.
    const std::uint64_t key = self.ec.prepare_wait();
    self.parked.store(true, std::memory_order_seq_cst);
    parked_count_.fetch_add(1, std::memory_order_seq_cst);
    // Registry exit, shared by every branch below so the count/flag pair
    // can never diverge between them.
    const auto unpark = [&] {
      parked_count_.fetch_sub(1, std::memory_order_seq_cst);
      self.parked.store(false, std::memory_order_seq_cst);
    };
    if (shutdown_.load(std::memory_order_seq_cst)) {
      unpark();
      self.ec.cancel_wait();
      return;
    }
    if (has_work(core)) {
      unpark();
      self.ec.cancel_wait();
      continue;
    }
    self.ec.commit_wait(key);
    unpark();
  }
}

bool Runtime::has_work(int core) const {
  const Worker& self = *workers_[static_cast<std::size_t>(core)];
  // Own channels (this thread is their consumer, so empty() is exact up to
  // the mid-push transient, which reads as non-empty — the safe direction).
  if (!self.aq.empty() || !self.inbox.empty() || !self.feeder.empty())
    return true;
  if (self.wsq.size_estimate() > 0) return true;
  // Steal opportunities: a deterministic sweep, unlike try_steal's random
  // probes — a parked worker must never overlook a non-empty victim.
  const auto* workers = workers_.data();
  const int n = topo_->num_cores();
  for (int c = 0; c < n; ++c) {
    if (c != core && workers[static_cast<std::size_t>(c)]->wsq.size_estimate() > 0)
      return true;
  }
  return false;
}

void Runtime::notify_stealers(int from_core) {
  // Dekker pairing with the parking protocol: the caller's queue push must
  // be ordered before the parked-registry loads (see util/eventcount.hpp).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (parked_count_.load(std::memory_order_relaxed) == 0) return;
  const auto* workers = workers_.data();
  const int n = topo_->num_cores();
  // off < n: offset n would be the caller itself, which is awake by
  // construction.
  for (int off = 1; off < n; ++off) {
    const int c = (from_core + off) % n;
    Worker& w = *workers[static_cast<std::size_t>(c)];
    if (w.parked.load(std::memory_order_seq_cst)) {
      w.ec.notify();
      return;  // one task was pushed; one thief suffices (wakes propagate)
    }
  }
}

// daslint: begin-hot-path(rt-dispatch)
// Steady-state dispatch: every task popped anywhere in the pool flows
// through these functions. The project linter (tools/daslint) forbids
// allocation, lock acquisition and type-erased dispatch between the
// hot-path markers — the no-alloc/no-lock/no-std::function property the
// runtime's overhead gate depends on is enforced textually on every push,
// not just measured. The policy hooks (core/policy.hpp) are inline, so
// they fold into the round.
bool Runtime::try_make_progress(int core) {
  Worker& w = *workers_[static_cast<std::size_t>(core)];

  // 1. Assembly queue: committed participations come first. The pop's
  //    acquire pairs with distribute()'s release push, so `place` is
  //    visible.
  if (auto* t = static_cast<TaskRec*>(w.aq.pop())) {
    participate(core, t);
    return true;
  }
  // 2. Steal-exempt inbox (fixed-place high-priority tasks).
  if (auto* t = static_cast<TaskRec*>(w.inbox.pop())) {
    DAS_ASSERT(t->has_fixed_place);
    // Copy, like the WSQ/steal sites below: distribute() writes
    // task->place and re-reads the place after publishing the task, so it
    // must not receive a reference aliasing that field.
    const ExecutionPlace place = t->place;
    distribute(core, t, place);
    return true;
  }
  // 3. Feeder: stealable tasks handed to us by other threads; drain into our
  //    WSQ (owner-only push keeps the Chase-Lev invariant). Draining more
  //    than one makes the surplus steal-visible — tell a parked peer.
  int drained = 0;
  while (auto* t = static_cast<TaskRec*>(w.feeder.pop())) {
    w.wsq.push_bottom(t);
    ++drained;
  }
  if (drained > 1) notify_stealers(core);
  // 4. Own WSQ, newest first.
  if (TaskRec* t = w.wsq.pop_bottom()) {
    const ExecutionPlace place =
        t->has_fixed_place
            ? t->place
            : policy_->on_execute(t->node->type, t->node->priority, core);
    distribute(core, t, place);
    return true;
  }
  // 5. Steal from a random victim; the thief re-runs the local search
  //    (paper Fig. 3 steps 4-5).
  if (TaskRec* t = try_steal(core)) {
    const ExecutionPlace place =
        t->has_fixed_place
            ? t->place
            : policy_->on_execute(t->node->type, t->node->priority, core);
    distribute(core, t, place);
    return true;
  }
  return false;
}

Runtime::TaskRec* Runtime::try_steal(int core) {
  const int n = topo_->num_cores();
  if (n <= 1) return nullptr;
  const auto* workers = workers_.data();  // hoisted off the per-probe path
  Worker& self = *workers[static_cast<std::size_t>(core)];
  for (int attempt = 0; attempt < kStealAttemptsPerRound; ++attempt) {
    // Draw from n-1 and remap around self: every attempt probes a real
    // victim instead of burning draws on victim == core.
    int victim = static_cast<int>(self.rng.below(static_cast<std::uint64_t>(n - 1)));
    if (victim >= core) ++victim;
    Worker& v = *workers[static_cast<std::size_t>(victim)];
    if (TaskRec* t = v.wsq.steal_top()) {
      // Wake propagation: if the victim still has surplus, a parked peer
      // can join the party (one push woke only one thief).
      if (v.wsq.size_estimate() > 0) notify_stealers(core);
      return t;
    }
  }
  return nullptr;
}

void Runtime::distribute(int core, TaskRec* task,
                         const ExecutionPlace& place) {
  ExecutionPlace p = place;
  if (faults_armed_) [[unlikely]] {
    // A place that touches a retired worker would strand its AQ slots:
    // degrade to solo on the (live) distributing worker. Conservative but
    // simple, and the policy re-molds the next wake against the shrunken
    // pool anyway.
    for (int i = 0; i < p.width; ++i) {
      if (worker_dead(p.leader + i)) {
        p = ExecutionPlace{core, 1};
        break;
      }
    }
  }
  DAS_ASSERT(topo_->is_valid_place(p));
  DAS_ASSERT(p.width <= max_place_width_);
  task->place = p;
  task->has_fixed_place = true;
  if (p.width == 1 && p.leader == core) {
    // Solo self-assembly — the dominant fine-grained case: the distributing
    // worker is the whole place, so skip the AQ round-trip (an MPSC
    // push/pop pair plus a progress-loop lap per task) and execute in
    // place. Queue order is unchanged: the AQ path would have made this
    // task the worker's next action anyway.
    participate(core, task);
    return;
  }
  // Publish into every participant's AQ: W lock-free pushes, then at most
  // one wake per participant. The writes of `place` above happen-before
  // each pop (the MPSC push/pop release/acquire edge provides it). Slot 0
  // reuses ready_hook (the task was popped from its wake-up channel to get
  // here, so the hook is unlinked); slots 1..W-1 come from the job's
  // lazily-allocated wide-hook arena.
  const auto* workers = workers_.data();
  MpscQueue::Node* wide =
      p.width > 1 ? wide_hooks(task->job, task->id) : nullptr;
  for (int i = 0; i < p.width; ++i) {
    MpscQueue::Node* hook =
        i == 0 ? &task->ready_hook : &wide[static_cast<std::size_t>(i - 1)];
    workers[static_cast<std::size_t>(p.leader + i)]->aq.push(hook, task);
  }
  for (int i = 0; i < p.width; ++i) {
    const int c = p.leader + i;
    if (c != core) workers[static_cast<std::size_t>(c)]->ec.notify();
  }
}
// daslint: end-hot-path

MpscQueue::Node* Runtime::wide_hooks(Job* job, NodeId id) {
  // Level 1: the chunk directory (one atomic pointer per kWideChunkTasks
  // tasks). First wide assembly of the job allocates it; concurrent
  // distributors race on the CAS, losers free their block and adopt the
  // winner's. Only the winner writes wide_dir_owner, so the unique_ptr has
  // a single writer and frees the directory with the job.
  auto* dir = job->wide_dir.load(std::memory_order_acquire);
  if (dir == nullptr) {
    auto fresh = std::make_unique<std::atomic<MpscQueue::Node*>[]>(
        job->num_wide_chunks);
    std::atomic<MpscQueue::Node*>* expected = nullptr;
    if (job->wide_dir.compare_exchange_strong(expected, fresh.get(),
                                              std::memory_order_acq_rel)) {
      dir = fresh.get();
      job->wide_dir_owner = std::move(fresh);
    } else {
      dir = expected;  // another distributor won; `fresh` frees on return
    }
  }
  // Level 2: the chunk covering task `id` — kWideChunkTasks x (max_width-1)
  // hooks, so a job with a handful of wide tasks allocates kilobytes, not
  // num_nodes x (max_width-1) nodes. The winning directory entry OWNS its
  // chunk (released from the unique_ptr; ~Job deletes through the
  // directory).
  const std::size_t stride = static_cast<std::size_t>(max_place_width_ - 1);
  const std::size_t chunk = static_cast<std::size_t>(id) / kWideChunkTasks;
  DAS_ASSERT(chunk < job->num_wide_chunks);
  MpscQueue::Node* base = dir[chunk].load(std::memory_order_acquire);
  if (base == nullptr) {
    auto fresh = std::make_unique<MpscQueue::Node[]>(kWideChunkTasks * stride);
    MpscQueue::Node* expected = nullptr;
    if (dir[chunk].compare_exchange_strong(expected, fresh.get(),
                                           std::memory_order_acq_rel)) {
      base = fresh.release();
    } else {
      base = expected;  // another distributor won; `fresh` frees on return
    }
  }
  return base + (static_cast<std::size_t>(id) % kWideChunkTasks) * stride;
}

std::int64_t Runtime::run_work(int core, TaskRec* task, int rank) {
  const DagNode& node = *task->node;
  const std::int64_t t0 = now_ns();
  if (task->work != nullptr) {
    (*task->work)(
        ExecContext{rank, task->place.width, task->place.leader, core});
  } else {
    // DES-style node: emulate the cost model's native-speed duration, which
    // the throttle below then stretches by the core's scenario speed.
    CostQuery q;
    q.place = task->place;
    q.rank = rank;
    q.core = core;
    q.cluster = &topo_->cluster_of_core(core);
    q.speed = topo_->max_base_speed();
    q.bw_share = 1.0;
    // Expression-aware: catalog types evaluate their closed form inline,
    // user std::function models still work (core/cost_expr.hpp).
    busy_wait_ns(s_to_ns(cost_eval(registry_->info(node.type), node.params, q)));
  }
  std::int64_t busy = now_ns() - t0;
  if (emulator_ != nullptr) {
    const double rel = emulator_->relative_speed(core, t0);
    const std::int64_t deficit = SpeedEmulator::deficit_ns(busy, rel);
    busy_wait_ns(deficit);
    busy += deficit;
  }
  stats_->record_busy_st(core, busy);  // this worker is core's only writer
  return busy;
}

void Runtime::finish_last(int core, TaskRec* task) {
  Job* job = task->job;
  // CSR fan-out: the sealed adjacency arena makes this a flat-span walk.
  for (const DagEdge& e : job->dag->successors(task->id)) {
    TaskRec* succ = &job->records[static_cast<std::size_t>(e.to)];
    if (succ->preds.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      wake_task(succ, core, /*caller_is_worker=*/true);
    }
  }
  if (job->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    complete_job(job);
  }
}

void Runtime::participate(int core, TaskRec* task) {
  const DagNode& node = *task->node;
  const int width = task->place.width;

  if (width == 1) {
    // Width-1 fast path: this participant IS the assembly. No arrival or
    // departure counters, no max-busy folding — the participant's busy time
    // is the PTT sample.
    const std::int64_t busy = run_work(core, task, /*rank=*/0);
    policy_->record_sample(node.type, task->place, ns_to_s(busy));
    stats_->record_task_at_st(node.priority, topo_->place_id(task->place),
                              node.phase, /*writer=*/core);
    finish_last(core, task);
    return;
  }

  const int rank = task->arrivals.fetch_add(1, std::memory_order_acq_rel);
  DAS_ASSERT(rank >= 0 && rank < width);
  const std::int64_t busy = run_work(core, task, rank);
  // Fold this participant's busy time into the assembly maximum (CAS loop:
  // no fetch_max before C++26).
  std::int64_t seen = task->max_busy_ns.load(std::memory_order_relaxed);
  while (busy > seen &&
         !task->max_busy_ns.compare_exchange_weak(seen, busy,
                                                  std::memory_order_acq_rel)) {
  }

  const int departed = task->departures.fetch_add(1, std::memory_order_acq_rel) + 1;
  DAS_ASSERT(departed <= width);
  if (departed < width) return;

  // Last finisher: train the PTT and wake the dependents (paper Fig. 3
  // step 8). The PTT learns the slowest participant's busy time — the
  // task's intrinsic duration at this place, what the paper's leader core
  // observes — not the assembly span, which arrival skew would poison.
  policy_->record_sample(
      node.type, task->place,
      ns_to_s(task->max_busy_ns.load(std::memory_order_acquire)));
  stats_->record_task_at_st(node.priority, topo_->place_id(task->place),
                            node.phase, /*writer=*/core);
  finish_last(core, task);
}

// daslint: begin-hot-path(rt-wakeup)
// Per-task wake-up/handoff: runs once per DAG edge that becomes ready.
void Runtime::wake_task(TaskRec* task, int waking_core,
                        bool caller_is_worker) {
  const DagNode& node = *task->node;
  WakeDecision wd = policy_->on_ready(node.type, node.priority, waking_core);
  if (faults_armed_) [[unlikely]] {
    // Never route to a retired worker: its queues belong to the watchdog
    // (which would re-home the task, but only a tick later). A fixed place
    // that touches a dead worker degrades at distribute time.
    if (worker_dead(wd.queue_core))
      wd.queue_core = live_worker_after(wd.queue_core);
  }

  if (wd.has_fixed_place) {
    task->place = wd.fixed_place;
    task->has_fixed_place = true;
  } else if (!options_.policy_options.remold_on_dequeue &&
             policy_->traits().uses_ptt) {
    // Ablation: width decided at wake-up, honoured by owner and thieves.
    task->place = policy_->on_execute(node.type, node.priority, wd.queue_core);
    task->has_fixed_place = true;
  }

  Worker& target = *workers_[static_cast<std::size_t>(wd.queue_core)];
  if (!wd.stealable) {
    // Steal-exempt: only worker queue_core may run it — wake that worker
    // specifically (notify is a fence + one load when it is not parked).
    target.inbox.push(&task->ready_hook, task);
    if (!(caller_is_worker && wd.queue_core == waking_core)) target.ec.notify();
  } else {
    const bool owner_path = caller_is_worker && wd.queue_core == waking_core;
    push_stealable(wd.queue_core, task, owner_path);
  }
}

void Runtime::push_stealable(int target_core, TaskRec* task, bool from_owner) {
  Worker& target = *workers_[static_cast<std::size_t>(target_core)];
  if (from_owner) {
    // The calling thread IS this worker: Chase-Lev owner push. Lazy wake:
    // when the owner's next progress round pops this very task, a fresh
    // task on an otherwise-empty deque offers thieves nothing — only work
    // the owner will NOT get to immediately is worth a wake (this is what
    // keeps a serial dependency chain from paying a futex round-trip per
    // task). That means surplus beyond the fresh task, OR anything queued
    // in the AQ/inbox, which try_make_progress drains BEFORE the WSQ — a
    // committed assembly there would otherwise pin this task steal-visible
    // but unannounced for its whole duration. A worker never parks while
    // any WSQ shows surplus (has_work sweeps them all), so unnotified
    // tasks cannot strand.
    target.wsq.push_bottom(task);
    if (target.wsq.size_estimate() > 1 || !target.aq.empty() ||
        !target.inbox.empty()) {
      notify_stealers(target_core);
    }
    return;
  }
  // Any other thread (the submitter, or remote wake-ups under ablation
  // options) hands the task over through the MPSC feeder; the owner drains
  // it into its WSQ.
  target.feeder.push(&task->ready_hook, task);
  target.ec.notify();
}
// daslint: end-hot-path

void Runtime::complete_job(Job* job) {
  const std::int64_t done_ns = now_ns();
  const JobId id = job->id;
  {
    MutexLock g(mu_);
    job->done_ns = done_ns;
    job->done = true;  // fires the per-job latch wait(id) blocks on
    // Close the stats busy-window when the pool goes active -> idle:
    // elapsed accumulates the union of job windows, so overlapping jobs are
    // counted once and sequential runs sum exactly as before.
    if (active_jobs_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      stats_->set_elapsed(stats_->elapsed_s() +
                          ns_to_s(done_ns - busy_window_start_ns_));
  }
  cv_.notify_all();
  // Service notification strictly after mu_ is released: the hook may
  // re-enter submit() (which takes mu_) to release queued jobs. `job` may be
  // freed by a concurrent wait() the moment cv_ fired, hence the id copy.
  if (job_done_hook_) job_done_hook_(id);
}

}  // namespace das::rt
