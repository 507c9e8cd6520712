#pragma once
// Execution statistics shared by both engines.
//
// Collects exactly what the paper's evaluation plots need:
//   - task counts per (priority, execution place), optionally segmented into
//     *phases* (application iterations) — Figures 5 and 9(b,c);
//   - per-core cumulative kernel busy time, excluding runtime activity and
//     idleness — Figure 6;
//   - total tasks / elapsed time => throughput — Figures 4, 7, 10.
//
// Per-writer counter blocks. The (priority, phase, place) count grid exists
// once per *writer*, each copy starting on its own cache line, so engines
// whose recorders are distinct threads never share a counter line:
//   - rt: one block per worker. The worker that finishes a task records it
//     into its own block with a single-writer store (record_task_at_st,
//     writer = its core): no lock-prefixed RMW and no line bouncing per
//     task. It is likewise the only writer of its core's busy counter
//     (record_busy_st).
//   - sim: each rank has its own ExecutionStats with one block, written
//     only by the rank's shard (one thread at a time).
// Recording is single-writer only: a record is a plain load+store, never a
// lock-prefixed RMW, so two threads must never record into the same block
// or the same core's busy counter.
// Queries sum every block. tasks_total, tasks_with_priority, distribution
// and snapshot make one sequential pass over the blocks, O(writers x
// phases x places); snapshot runs once per waited job (Executor::wait),
// never per task. The grid holds counts only: task spans are not
// accumulated, since no query reads them.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/task_type.hpp"
#include "platform/topology.hpp"
#include "util/aligned.hpp"

namespace das {

/// Value-type copy of an ExecutionStats at one instant — what RunResult
/// carries back to drivers so results stay inspectable after the engine
/// (and its live ExecutionStats) is gone.
struct StatsSnapshot {
  std::int64_t tasks_total = 0;
  std::int64_t tasks_high = 0;   ///< high-priority (critical) tasks
  std::int64_t tasks_low = 0;
  double elapsed_s = 0.0;        ///< engine-reported elapsed seconds
  double total_busy_s = 0.0;
  std::vector<double> busy_s;    ///< per-core kernel busy time, index = core
  /// Fraction of high-priority tasks per execution place, descending share
  /// (zero-count places omitted) — the paper's Fig. 5 data.
  std::vector<std::pair<ExecutionPlace, double>> high_distribution;
};

class ExecutionStats {
 public:
  /// `num_phases` >= 1 (tasks carry their phase, DagNode::phase).
  /// `num_writers` >= 1 count blocks, one per single-writer recorder.
  explicit ExecutionStats(const Topology& topo, int num_phases = 1,
                          int num_writers = 1);

  const Topology& topology() const { return *topo_; }
  int num_phases() const { return num_phases_; }
  int num_writers() const { return num_writers_; }

  /// Records a completed task into block `writer`: its priority, where it
  /// ran and its phase (clamped to the phase dimension). Only the ONE
  /// thread that writes block `writer` may call it. Concurrent readers
  /// still see consistent relaxed values.
  void record_task_at_st(Priority priority, int place_id, int phase,
                         int writer = 0);
  /// Adds kernel busy time to a core (emulated time for throttled cores).
  /// Only the ONE thread that writes core `core`'s counter may call it.
  void record_busy_st(int core, std::int64_t busy_ns);

  /// Engines set the experiment's elapsed (virtual or wall) seconds.
  /// Atomic: under the job service a worker closing the last job's window
  /// may publish elapsed while another thread snapshots.
  void set_elapsed(double seconds) {
    elapsed_s_.store(seconds, std::memory_order_relaxed);
  }
  double elapsed_s() const {
    return elapsed_s_.load(std::memory_order_relaxed);
  }

  // --- Queries (each sums every writer block) -------------------------------

  std::int64_t tasks_total() const;
  std::int64_t tasks_with_priority(Priority p) const;
  /// Count for one (priority, place), summed over phases.
  std::int64_t tasks_at(Priority p, int place_id) const;
  /// Count for one (priority, place, phase).
  std::int64_t tasks_at_phase(Priority p, int place_id, int phase) const;
  double busy_s(int core) const;
  double total_busy_s() const;
  /// Tasks per second over the recorded elapsed time.
  double throughput() const;

  /// Fraction of priority-`p` tasks executed at each place (places with a
  /// zero count omitted), ordered by descending share — the paper's Fig. 5
  /// pie-chart data.
  std::vector<std::pair<ExecutionPlace, double>> distribution(Priority p) const;

  /// Copies the current counters into a value-type snapshot.
  StatsSnapshot snapshot() const;

  /// Clears all counters of every block (phases keep their dimension).
  void reset();

 private:
  /// One cache line of counters. A writer block is a whole number of lines,
  /// so no two blocks share one.
  static constexpr std::size_t kPerLine = kCacheLine / sizeof(std::int64_t);
  struct alignas(kCacheLine) CounterLine {
    std::atomic<std::int64_t> n[kPerLine];
  };

  /// Index of (priority, place, phase) inside a block.
  std::size_t index(Priority p, int place_id, int phase) const;
  /// Priority-`p` count per place, summed over writers and phases.
  std::vector<std::int64_t> place_counts(Priority p) const;
  /// distribution() of per-place counts.
  std::vector<std::pair<ExecutionPlace, double>> distribution_of(
      const std::vector<std::int64_t>& counts) const;
  std::atomic<std::int64_t>& counter(int writer, std::size_t i) const {
    const std::size_t line =
        static_cast<std::size_t>(writer) * block_lines_ + i / kPerLine;
    return lines_[line].n[i % kPerLine];
  }

  const Topology* topo_;
  int num_phases_;
  int num_writers_;
  std::atomic<double> elapsed_s_{0.0};
  std::unique_ptr<CachePadded<std::atomic<std::int64_t>>[]> busy_ns_;
  // num_writers_ blocks of a dense [priority][phase][place] counter grid.
  std::unique_ptr<CounterLine[]> lines_;
  std::size_t block_size_ = 0;   ///< counters per block
  std::size_t block_lines_ = 0;  ///< cache lines per block
};

}  // namespace das
