#pragma once
// perfbench harness: the pieces every workload shares.
//
//   * Tracer  — spans (name, start, end, parent) recorded from the benchmark's
//               own code around calls into the library's public functions,
//               kept in per-thread memory and written once, at exit, as a
//               Chrome trace. Disabled, a span costs one relaxed load.
//   * Raw     — the raw measurement document perfbench/run.py reduces:
//               named sample lists and single values (each with its unit),
//               operation counts and named output checks.
//   * helpers — the layered DAG generator, a wall clock, peak RSS.
//
// The harness only measures; medians, nearest-rank percentiles, self times
// and the final report are computed by perfbench/benchlib.py.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dag.hpp"

namespace perfbench {

/// Monotonic wall clock in nanoseconds (steady_clock).
std::int64_t now_ns();
inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// In-memory span recorder. One buffer per thread, registered on the
/// thread's first span; spans nest per thread through a stack of open ids.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// RAII span: records [construction, destruction) when tracing was on at
  /// construction.
  class Span {
   public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    const char* name_;
    std::int64_t start_ns_ = 0;
    std::int64_t id_ = -1;  // -1: not recording
  };

  /// Writes every recorded span as Chrome-trace JSON ("ph": "X" events,
  /// "args": {"id", "parent"}). Returns false when the file cannot be
  /// written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t id;
    std::int64_t parent;
  };
  struct ThreadBuf {
    int tid = 0;
    std::vector<Event> events;
    std::vector<std::int64_t> open;  // stack of open span ids
  };
  ThreadBuf& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{0};
  const std::int64_t origin_ns_ = now_ns();
  mutable std::mutex mu_;  // guards bufs_ (registration and the final write)
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

using Span = Tracer::Span;

/// The raw measurement document of one run.
class Raw {
 public:
  /// Appends one sample to the named list (reduced to its median, or to
  /// the percentiles registered with percentiles()).
  void sample(const std::string& name, const std::string& unit, double v);
  /// Sets a single value.
  void value(const std::string& name, const std::string& unit, double v);
  /// Declares that `name`'s samples are reported as nearest-rank
  /// percentiles: `names` maps a percentile (50, 99, ...) to a metric name.
  void percentiles(const std::string& name, std::map<int, std::string> names);
  /// Records an output check; a failed check counts as a failed operation.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  /// Counts `n` attempted operations, `failed` of which failed.
  void ops(std::int64_t attempted, std::int64_t failed = 0);
  void info(const std::string& key, const std::string& v);

  /// The whole document as one line of JSON.
  std::string dump() const;

 private:
  struct Series {
    std::string unit;
    std::vector<double> samples;
    std::map<int, std::string> percentiles;
  };
  std::map<std::string, Series> series_;
  std::map<std::string, std::pair<std::string, double>> values_;
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks_;
  std::map<std::string, std::string> info_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Run options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;  ///< online CPUs; no workload starts more threads
};

/// Layered DAG of `tasks` nodes spread over `ranks` ranks: each rank holds
/// a critical chain of `parallelism`-wide layers (node 0 of a layer is
/// high-priority and releases the next layer), and for ranks > 1 each
/// layer's critical node also releases the next layer's critical node on
/// the neighbouring ranks through an edge delayed by `cross_delay_s` — the
/// halo shape of `sim_throughput --ranks=N`. With ranks == 1 it is the
/// synthetic layered DAG of workloads::make_synthetic_dag. Built with
/// Dag::add_node/add_edge under a "core.dag_build" span and sealed under a
/// "core.dag_seal" span; both times are sampled into `raw`.
das::Dag build_layered_dag(Raw& raw, das::TaskTypeId type, int ranks, int tasks,
                           int parallelism, double cross_delay_s,
                           das::TaskParams params = {}, das::WorkFn work = {});

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Runs `pass` back to back until `seconds` have elapsed and at least
/// `min_passes` passes ran; returns the number of passes.
template <typename Pass>
int measure(double seconds, int min_passes, Pass&& pass) {
  const std::int64_t t0 = now_ns();
  int n = 0;
  while (n < min_passes || seconds_since(t0) < seconds) {
    pass();
    ++n;
  }
  return n;
}

}  // namespace perfbench
