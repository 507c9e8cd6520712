#include "trace/stats.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace das {

ExecutionStats::ExecutionStats(const Topology& topo, int num_phases,
                               int num_writers)
    : topo_(&topo), num_phases_(num_phases), num_writers_(num_writers) {
  DAS_CHECK(num_phases >= 1);
  DAS_CHECK(num_writers >= 1);
  busy_ns_ = std::make_unique<CachePadded<std::atomic<std::int64_t>>[]>(
      static_cast<std::size_t>(topo.num_cores()));
  block_size_ = 2ull * static_cast<std::size_t>(num_phases_) *
                static_cast<std::size_t>(topo.num_places());
  block_lines_ = (block_size_ + kPerLine - 1) / kPerLine;
  lines_ = std::make_unique<CounterLine[]>(
      static_cast<std::size_t>(num_writers_) * block_lines_);
  reset();
}

std::size_t ExecutionStats::index(Priority p, int place_id, int phase) const {
  DAS_ASSERT(place_id >= 0 && place_id < topo_->num_places());
  DAS_ASSERT(phase >= 0 && phase < num_phases_);
  const std::size_t prio = p == Priority::kHigh ? 1 : 0;
  return (prio * static_cast<std::size_t>(num_phases_) +
          static_cast<std::size_t>(phase)) *
             static_cast<std::size_t>(topo_->num_places()) +
         static_cast<std::size_t>(place_id);
}

void ExecutionStats::record_task_at_st(Priority priority, int place_id,
                                       int phase, int writer) {
  DAS_ASSERT(writer >= 0 && writer < num_writers_);
  const int ph = std::clamp(phase, 0, num_phases_ - 1);
  std::atomic<std::int64_t>& c = counter(writer, index(priority, place_id, ph));
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

void ExecutionStats::record_busy_st(int core, std::int64_t busy_ns) {
  DAS_ASSERT(core >= 0 && core < topo_->num_cores());
  std::atomic<std::int64_t>& b = busy_ns_[static_cast<std::size_t>(core)].value;
  b.store(b.load(std::memory_order_relaxed) + busy_ns,
          std::memory_order_relaxed);
}

std::int64_t ExecutionStats::tasks_total() const {
  std::int64_t total = 0;
  for (int w = 0; w < num_writers_; ++w)
    for (std::size_t i = 0; i < block_size_; ++i)
      total += counter(w, i).load(std::memory_order_relaxed);
  return total;
}

std::vector<std::int64_t> ExecutionStats::place_counts(Priority p) const {
  // Priority p's half of a block is contiguous ([phase][place] rows), so
  // this is one sequential scan per block.
  const auto places = static_cast<std::size_t>(topo_->num_places());
  const std::size_t begin = index(p, 0, 0);
  const std::size_t end =
      begin + static_cast<std::size_t>(num_phases_) * places;
  std::vector<std::int64_t> out(places, 0);
  for (int w = 0; w < num_writers_; ++w)
    for (std::size_t row = begin; row < end; row += places)
      for (std::size_t pid = 0; pid < places; ++pid)
        out[pid] += counter(w, row + pid).load(std::memory_order_relaxed);
  return out;
}

std::int64_t ExecutionStats::tasks_with_priority(Priority p) const {
  const std::vector<std::int64_t> counts = place_counts(p);
  return std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
}

std::int64_t ExecutionStats::tasks_at(Priority p, int place_id) const {
  std::int64_t total = 0;
  for (int ph = 0; ph < num_phases_; ++ph) total += tasks_at_phase(p, place_id, ph);
  return total;
}

std::int64_t ExecutionStats::tasks_at_phase(Priority p, int place_id, int phase) const {
  DAS_CHECK(place_id >= 0 && place_id < topo_->num_places());
  DAS_CHECK(phase >= 0 && phase < num_phases_);
  const std::size_t i = index(p, place_id, phase);
  std::int64_t total = 0;
  for (int w = 0; w < num_writers_; ++w)
    total += counter(w, i).load(std::memory_order_relaxed);
  return total;
}

double ExecutionStats::busy_s(int core) const {
  DAS_CHECK(core >= 0 && core < topo_->num_cores());
  return ns_to_s(busy_ns_[static_cast<std::size_t>(core)].value.load(
      std::memory_order_relaxed));
}

double ExecutionStats::total_busy_s() const {
  double total = 0.0;
  for (int c = 0; c < topo_->num_cores(); ++c) total += busy_s(c);
  return total;
}

double ExecutionStats::throughput() const {
  const double elapsed = elapsed_s();
  if (elapsed <= 0.0) return 0.0;
  return static_cast<double>(tasks_total()) / elapsed;
}

std::vector<std::pair<ExecutionPlace, double>> ExecutionStats::distribution(
    Priority p) const {
  return distribution_of(place_counts(p));
}

std::vector<std::pair<ExecutionPlace, double>> ExecutionStats::distribution_of(
    const std::vector<std::int64_t>& counts) const {
  const std::int64_t total =
      std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  std::vector<std::pair<ExecutionPlace, double>> out;
  if (total == 0) return out;
  for (std::size_t pid = 0; pid < counts.size(); ++pid) {
    if (counts[pid] > 0)
      out.emplace_back(topo_->place_at(static_cast<int>(pid)),
                       static_cast<double>(counts[pid]) /
                           static_cast<double>(total));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

StatsSnapshot ExecutionStats::snapshot() const {
  // One pass over the blocks per priority (Executor::wait snapshots every
  // waited job, so this runs once per job, not only at report time).
  const std::vector<std::int64_t> high = place_counts(Priority::kHigh);
  const std::vector<std::int64_t> low = place_counts(Priority::kLow);
  StatsSnapshot s;
  s.tasks_high = std::accumulate(high.begin(), high.end(), std::int64_t{0});
  s.tasks_low = std::accumulate(low.begin(), low.end(), std::int64_t{0});
  s.tasks_total = s.tasks_high + s.tasks_low;
  s.elapsed_s = elapsed_s();
  s.busy_s.resize(static_cast<std::size_t>(topo_->num_cores()));
  for (int c = 0; c < topo_->num_cores(); ++c) {
    s.busy_s[static_cast<std::size_t>(c)] = busy_s(c);
    s.total_busy_s += s.busy_s[static_cast<std::size_t>(c)];
  }
  s.high_distribution = distribution_of(high);
  return s;
}

void ExecutionStats::reset() {
  for (int c = 0; c < topo_->num_cores(); ++c)
    busy_ns_[static_cast<std::size_t>(c)].value.store(0, std::memory_order_relaxed);
  const std::size_t num_lines =
      static_cast<std::size_t>(num_writers_) * block_lines_;
  for (std::size_t l = 0; l < num_lines; ++l)
    for (std::atomic<std::int64_t>& c : lines_[l].n)
      c.store(0, std::memory_order_relaxed);
  elapsed_s_.store(0.0, std::memory_order_relaxed);
}

}  // namespace das
