#include "harness.hpp"

#include <sys/resource.h>

#include <chrono>
#include <fstream>

#include "util/json.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ Tracer --

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

Tracer::ThreadBuf& Tracer::local() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> g(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    buf = bufs_.back().get();
    buf->tid = static_cast<int>(bufs_.size());
  }
  return *buf;
}

Tracer::Span::Span(const char* name) : name_(name) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  id_ = t.next_id_.fetch_add(1, std::memory_order_relaxed);
  t.local().open.push_back(id_);
  start_ns_ = now_ns();
}

Tracer::Span::~Span() {
  if (id_ < 0) return;
  const std::int64_t end = now_ns();
  ThreadBuf& buf = Tracer::instance().local();
  buf.open.pop_back();
  const std::int64_t parent = buf.open.empty() ? -1 : buf.open.back();
  buf.events.push_back(Event{name_, start_ns_, end, id_, parent});
}

bool Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> g(mu_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const auto& b : bufs_) {
    for (const Event& e : b->events) {
      das::json::Value ev = das::json::Value::object();
      const std::string name(e.name);
      ev.set("name", name);
      ev.set("cat", name.substr(0, name.find('.')));
      ev.set("ph", "X");
      ev.set("pid", 1);
      ev.set("tid", b->tid);
      ev.set("ts", static_cast<double>(e.start_ns - origin_ns_) * 1e-3);
      ev.set("dur", static_cast<double>(e.end_ns - e.start_ns) * 1e-3);
      das::json::Value args = das::json::Value::object();
      args.set("id", e.id);
      args.set("parent", e.parent);
      ev.set("args", std::move(args));
      out << (first ? "\n" : ",\n") << ev.dump();
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --------------------------------------------------------------------- Raw --

void Raw::sample(const std::string& name, const std::string& unit, double v) {
  Series& s = series_[name];
  s.unit = unit;
  s.samples.push_back(v);
}

void Raw::value(const std::string& name, const std::string& unit, double v) {
  values_[name] = {unit, v};
}

void Raw::percentiles(const std::string& name, std::map<int, std::string> names) {
  series_[name].percentiles = std::move(names);
}

void Raw::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
  ops(1, ok ? 0 : 1);
}

void Raw::ops(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Raw::info(const std::string& key, const std::string& v) { info_[key] = v; }

std::string Raw::dump() const {
  using das::json::Value;
  Value doc = Value::object();
  Value series = Value::object();
  for (const auto& [name, s] : series_) {
    Value e = Value::object();
    e.set("unit", s.unit);
    Value xs = Value::array();
    for (const double x : s.samples) xs.push_back(x);
    e.set("samples", std::move(xs));
    if (!s.percentiles.empty()) {
      Value ps = Value::object();
      for (const auto& [q, n] : s.percentiles) ps.set(std::to_string(q), n);
      e.set("percentiles", std::move(ps));
    }
    series.set(name, std::move(e));
  }
  doc.set("series", std::move(series));
  Value values = Value::object();
  for (const auto& [name, uv] : values_) {
    Value e = Value::object();
    e.set("unit", uv.first);
    e.set("value", uv.second);
    values.set(name, std::move(e));
  }
  doc.set("values", std::move(values));
  Value checks = Value::array();
  for (const Check& c : checks_) {
    Value e = Value::object();
    e.set("name", c.name);
    e.set("ok", c.ok);
    e.set("detail", c.detail);
    checks.push_back(std::move(e));
  }
  doc.set("checks", std::move(checks));
  Value info = Value::object();
  for (const auto& [k, v] : info_) info.set(k, v);
  doc.set("info", std::move(info));
  doc.set("attempted", attempted_);
  doc.set("failed", failed_);
  return doc.dump();
}

// ----------------------------------------------------------------- helpers --

das::Dag build_layered_dag(Raw& raw, das::TaskTypeId type, int ranks, int tasks,
                           int parallelism, double cross_delay_s,
                           das::TaskParams params, das::WorkFn work) {
  using das::NodeId;
  using das::Priority;
  das::Dag dag;
  const std::int64_t t0 = now_ns();
  {
    Span span("core.dag_build");
    const int per_rank = std::max(1, tasks / ranks);
    const int width = std::min(parallelism, per_rank);
    const int layers = std::max(1, per_rank / width);
    std::vector<NodeId> prev(static_cast<std::size_t>(ranks), das::kInvalidNode);
    std::vector<NodeId> cur(static_cast<std::size_t>(ranks), das::kInvalidNode);
    for (int l = 0; l < layers; ++l) {
      for (int r = 0; r < ranks; ++r) {
        const auto ru = static_cast<std::size_t>(r);
        for (int p = 0; p < width; ++p) {
          const NodeId id = dag.add_node(
              type, p == 0 ? Priority::kHigh : Priority::kLow, params, work);
          dag.node(id).rank = r;
          if (p == 0) cur[ru] = id;
          if (l > 0) dag.add_edge(prev[ru], id);
        }
        if (l > 0) {
          if (r > 0) dag.add_edge(prev[ru - 1], cur[ru], cross_delay_s);
          if (r + 1 < ranks) dag.add_edge(prev[ru + 1], cur[ru], cross_delay_s);
        }
      }
      prev.swap(cur);
    }
  }
  const double build_s = seconds_since(t0);
  const std::int64_t t1 = now_ns();
  {
    Span span("core.dag_seal");
    dag.seal();
  }
  raw.sample("core.dag_seal_s", "s", seconds_since(t1));
  raw.sample("core.dag_build_ns_per_node", "ns",
             build_s * 1e9 / static_cast<double>(dag.num_nodes()));
  return dag;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
