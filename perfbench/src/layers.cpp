#include "layers.hpp"

#include <algorithm>

#include "net/wire.hpp"

namespace perfbench {

SimTotals& SimTotals::operator+=(const SimTotals& o) {
  vmakespan_s += o.vmakespan_s;
  events += o.events;
  tasks += o.tasks;
  wall_s += o.wall_s;
  busy_s += o.busy_s;
  capacity_s += o.capacity_s;
  rank_imbalance = std::max(rank_imbalance, o.rank_imbalance);
  return *this;
}

SimTotals run_sim_cases(const std::vector<SimCase>& cases,
                        const das::TaskTypeRegistry& registry,
                        das::sim::SimOptions base, int des_threads) {
  SimTotals t;
  base.des_threads = des_threads;
  for (const SimCase& c : cases) {
    das::sim::SimEngine eng(c.ranks, c.policy, registry, base);
    const std::int64_t t0 = now_ns();
    double makespan = 0.0;
    {
      Span span("sim.run");
      makespan = eng.run(*c.dag);
    }
    t.wall_s += seconds_since(t0);
    t.vmakespan_s += makespan;
    t.events += eng.events_processed();
    t.tasks += c.dag->num_nodes();
    std::uint64_t max_rank = 0;
    for (int r = 0; r < eng.num_ranks(); ++r) {
      max_rank = std::max(max_rank, eng.events_processed(r));
      t.busy_s += eng.stats(r).total_busy_s();
      t.capacity_s +=
          makespan * static_cast<double>(eng.stats(r).topology().num_cores());
    }
    const double mean_rank = static_cast<double>(eng.events_processed()) /
                             static_cast<double>(eng.num_ranks());
    t.rank_imbalance = std::max(
        t.rank_imbalance, static_cast<double>(max_rank) / mean_rank);
  }
  return t;
}

void record_sim_layer(Raw& raw, const SimTotals& threaded,
                      const SimTotals& serial) {
  const double events = static_cast<double>(threaded.events);
  raw.value("sim.events", "count", events);
  raw.value("sim.events_per_task", "count",
            events / static_cast<double>(threaded.tasks));
  raw.value("sim.ns_per_event", "ns", threaded.wall_s * 1e9 / events);
  raw.value("sim.utilisation", "ratio", threaded.busy_s / threaded.capacity_s);
  raw.value("sim.rank_event_imbalance", "ratio", threaded.rank_imbalance);
  raw.value("sim.des_speedup_vs_serial", "ratio",
            serial.wall_s / threaded.wall_s);
}

void record_codec_layer(Raw& raw, const std::vector<const das::Dag*>& dags,
                        int reps) {
  std::size_t bytes = 0;
  bool same_shape = true;
  for (int i = 0; i < reps; ++i) {
    double encode_s = 0.0, decode_s = 0.0;
    bytes = 0;
    for (const das::Dag* dag : dags) {
      das::net::WireWriter w;
      std::int64_t t0 = now_ns();
      {
        Span span("net.encode_dag");
        das::net::encode_dag(*dag, w);
      }
      encode_s += seconds_since(t0);
      bytes += w.size();
      const std::vector<std::byte> wire = w.take();
      das::net::WireReader r(wire);
      t0 = now_ns();
      das::Dag back;
      {
        Span span("net.decode_dag");
        back = das::net::decode_dag(r);
      }
      decode_s += seconds_since(t0);
      same_shape = same_shape && back.num_nodes() == dag->num_nodes() &&
                   back.num_edges() == dag->num_edges();
    }
    raw.sample("net.encode_dag_us", "us", encode_s * 1e6);
    raw.sample("net.decode_dag_us", "us", decode_s * 1e6);
  }
  raw.value("net.dag_wire_bytes", "bytes", static_cast<double>(bytes));
  raw.check("codec_round_trip_shape", same_shape);
}

}  // namespace perfbench
