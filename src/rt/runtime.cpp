#include "rt/runtime.hpp"

#include "platform/affinity.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace das::rt {

Runtime::Runtime(const Topology& topo, Policy policy,
                 const TaskTypeRegistry& registry, RtOptions options)
    : topo_(&topo), registry_(&registry), options_(options) {
  ptt_ = std::make_unique<PttStore>(topo, registry.size(), options_.ptt_ratio);
  policy_ = std::make_unique<PolicyEngine>(policy, topo, ptt_.get(),
                                           options_.seed, options_.policy_options);
  // One count block per worker: each records only into its own.
  stats_ = std::make_unique<ExecutionStats>(topo, options_.stats_phases,
                                            topo.num_cores());
  epoch_ns_ = now_ns();
  if (options_.scenario != nullptr) {
    DAS_CHECK_MSG(&options_.scenario->topology() == &topo,
                  "scenario topology must match runtime topology");
    emulator_ = std::make_unique<SpeedEmulator>(*options_.scenario, epoch_ns_);
  }
  for (const ExecutionPlace& p : topo.places())
    max_place_width_ = std::max(max_place_width_, p.width);

  const int n = topo.num_cores();
  // The rule the threaded DES uses for its protocol threads: poll before
  // parking only when every worker can have a CPU of its own.
  spin_when_idle_ = n <= allowed_cpu_count();
  faults_armed_ = !options_.faults.empty() || options_.enable_watchdog;
  if (faults_armed_) {
    for (const CoreFault& f : options_.faults.events) {
      DAS_CHECK_MSG(f.core >= 0 && f.core < n,
                    "fault plan core out of range for this topology");
      DAS_CHECK(f.t_s >= 0.0);
    }
    dead_ = std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c)
      dead_[static_cast<std::size_t>(c)].store(false,
                                               std::memory_order_relaxed);
  }
  workers_.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    auto w = std::make_unique<Worker>();
    w->rng.reseed(options_.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(c) + 1);
    workers_.push_back(std::move(w));
  }
  for (int c = 0; c < n; ++c) {
    workers_[static_cast<std::size_t>(c)]->thread =
        std::thread([this, c] { worker_loop(c); });
  }
  if (faults_armed_) watchdog_ = std::thread([this] { watchdog_loop(); });
}

Runtime::~Runtime() {
  shutdown_.store(true, std::memory_order_seq_cst);
  // Workers observe shutdown_ inside the parking protocol: either their
  // pre-park re-check sees the flag, or their prepare_wait predates these
  // notifies and the eventcount wakes them (util/eventcount.hpp).
  for (auto& w : workers_) w->ec.notify();
  if (watchdog_.joinable()) watchdog_.join();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

double Runtime::scenario_now() const { return ns_to_s(now_ns() - epoch_ns_); }

int Runtime::jobs_in_flight() const {
  MutexLock g(mu_);
  return static_cast<int>(jobs_.size());
}

bool Runtime::job_done(JobId id) const {
  MutexLock g(mu_);
  const auto it = jobs_.find(id);
  DAS_CHECK_MSG(it != jobs_.end(),
                "job " + std::to_string(id) + " is not in flight");
  return it->second->done;
}

int Runtime::parked_workers() const {
  return parked_count_.load(std::memory_order_seq_cst);
}

void Runtime::submit_roots(Job& job) {
  for (const NodeId i : job.dag->root_ids()) {
    const DagNode& n = job.dag->node(i);
    const int waking = n.affinity_core >= 0 ? n.affinity_core : 0;
    DAS_CHECK(waking < topo_->num_cores());
    wake_task(&job.records[static_cast<std::size_t>(i)], waking,
              /*caller_is_worker=*/false);
  }
}

JobId Runtime::submit(const Dag& dag) {
  DAS_CHECK(dag.num_nodes() > 0);
  // Compact any staged edges into the CSR arena before workers fan out
  // through it. A no-op for the (usual) already-sealed DAG; submitting one
  // UNSEALED Dag from several threads concurrently is the caller's race.
  dag.seal();

  auto job = std::make_unique<Job>();
  job->dag = &dag;
  // The record block is the job's only up-front allocation (the wide-hook
  // arena is lazy, see wide_hooks) — steady-state dispatch allocates
  // nothing.
  job->records = std::make_unique<TaskRec[]>(static_cast<std::size_t>(dag.num_nodes()));
  job->num_wide_chunks =
      (static_cast<std::size_t>(dag.num_nodes()) + kWideChunkTasks - 1) /
      kWideChunkTasks;
  // One pass validates each node and fills its record; a rejected DAG
  // throws before the job is published.
  for (NodeId i = 0; i < dag.num_nodes(); ++i) {
    const DagNode& n = dag.node(i);
    const WorkFn& work = dag.work(i);
    DAS_CHECK_MSG(n.rank == 0, "the threaded runtime executes single-rank DAGs"
                               " (distributed DAGs run via das::net)");
    DAS_CHECK_MSG(
        work != nullptr || registry_->info(n.type).cost != nullptr ||
            registry_->info(n.type).expr.kind != CostExpr::Kind::kCallable,
        "node without work closure needs a cost model to emulate");
    TaskRec& r = job->records[static_cast<std::size_t>(i)];
    r.node = &n;
    r.work = work ? &work : nullptr;
    r.id = i;
    r.job = job.get();
    r.preds.store(n.num_predecessors, std::memory_order_relaxed);
  }
  job->outstanding.store(dag.num_nodes(), std::memory_order_release);
  job->submit_ns = now_ns();

  Job* raw = job.get();
  {
    MutexLock g(mu_);
    raw->id = next_job_++;
    jobs_.emplace(raw->id, std::move(job));
    // Open the stats busy-window when the pool goes idle -> active.
    if (active_jobs_.fetch_add(1, std::memory_order_acq_rel) == 0)
      busy_window_start_ns_ = raw->submit_ns;
  }
  // Roots are released while workers may already be busy with other jobs:
  // the channels are thread-safe and every push wakes its target (or a
  // parked stealer), so no broadcast is needed here.
  submit_roots(*raw);
  return raw->id;
}

void Runtime::set_job_done_hook(std::function<void(JobId)> hook) {
  MutexLock g(mu_);
  DAS_CHECK_MSG(jobs_.empty(),
                "set_job_done_hook: install before the first submit()");
  job_done_hook_ = std::move(hook);
}

double Runtime::wait(JobId id) {
  MutexLock g(mu_);
  const auto it = jobs_.find(id);
  DAS_CHECK_MSG(it != jobs_.end(),
                "job " + std::to_string(id) + " is not in flight");
  // The Job* stays valid across the unlock (unordered_map never moves its
  // mapped values); the ITERATOR does not — a concurrent submit() can
  // rehash jobs_ while cv_.wait has mu_ released — so re-erase by key.
  Job* job = it->second.get();
  while (!job->done) cv_.wait(g);
  const double elapsed = ns_to_s(job->done_ns - job->submit_ns);
  // The latch fired: no worker touches this job any more. Erasing here
  // frees the record block and AQ arena, keeping jobs_ bounded by the jobs
  // actually in flight (a 10k-job stream must not accumulate 10k record
  // blocks — see JobServiceTest.TenThousandJobStreamStaysBounded).
  jobs_.erase(id);
  return elapsed;
}

}  // namespace das::rt
