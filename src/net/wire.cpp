#include "net/wire.hpp"

namespace das::net {

namespace {

constexpr std::uint32_t kDagMagic = 0x44414731;  // "DAG1"
constexpr std::uint16_t kDagVersion = 1;
// Fixed wire size of one node record (type, priority, p0..p2, rank,
// affinity, phase, out-degree) and of one edge (target, delay).
constexpr std::size_t kNodeWireBytes = sizeof(TaskTypeId) + 1 +
                                       3 * sizeof(double) +
                                       4 * sizeof(std::int32_t);
constexpr std::size_t kEdgeWireBytes = sizeof(NodeId) + sizeof(double);

}  // namespace

void encode_dag(const Dag& dag, WireWriter& w) {
  dag.seal();  // folds staged edges so successors() walks are contiguous
  w.pod(kDagMagic);
  w.pod(kDagVersion);
  const int n = dag.num_nodes();
  w.pod(static_cast<std::int32_t>(n));
  w.pod(static_cast<std::uint64_t>(dag.num_edges()));
  for (NodeId id = 0; id < n; ++id) {
    const DagNode& node = dag.node(id);
    w.pod(node.type);
    w.pod(static_cast<std::uint8_t>(node.priority));
    w.pod(node.params.p0);
    w.pod(node.params.p1);
    w.pod(node.params.p2);
    w.pod(static_cast<std::int32_t>(node.rank));
    w.pod(static_cast<std::int32_t>(node.affinity_core));
    w.pod(static_cast<std::int32_t>(node.phase));
    w.pod(static_cast<std::uint32_t>(dag.num_successors(id)));
    for (const DagEdge& e : dag.successors(id)) {
      w.pod(e.to);
      w.pod(e.delay_s);
    }
  }
}

Dag decode_dag(WireReader& r) {
  DAS_CHECK_MSG(r.pod<std::uint32_t>() == kDagMagic,
                "decode_dag: bad magic (not a serialized DAG)");
  DAS_CHECK_MSG(r.pod<std::uint16_t>() == kDagVersion,
                "decode_dag: unsupported wire version");
  const auto n = r.pod<std::int32_t>();
  DAS_CHECK_MSG(n >= 0, "decode_dag: negative node count");
  const auto declared_edges = r.pod<std::uint64_t>();
  // Bound both counts by the bytes actually present before reserving
  // anything: a forged header must fail as malformed, not as a huge
  // allocation.
  DAS_CHECK_MSG(static_cast<std::size_t>(n) <= r.remaining() / kNodeWireBytes,
                "decode_dag: node count exceeds the payload");
  const std::size_t node_bytes = static_cast<std::size_t>(n) * kNodeWireBytes;
  DAS_CHECK_MSG(
      declared_edges <= (r.remaining() - node_bytes) / kEdgeWireBytes,
      "decode_dag: edge count exceeds the payload");
  Dag dag;
  dag.reserve(static_cast<std::size_t>(n),
              static_cast<std::size_t>(declared_edges));
  // Edges may point at nodes further down the payload, which add_edge
  // would reject, so read it twice: nodes first, skipping each edge list,
  // then the edges from a second cursor over the same bytes.
  WireReader edge_reader = r;
  std::uint64_t total_edges = 0;
  for (NodeId id = 0; id < n; ++id) {
    const auto type = r.pod<TaskTypeId>();
    const auto priority = r.pod<std::uint8_t>();
    DAS_CHECK_MSG(priority <= 1, "decode_dag: bad priority");
    TaskParams params;
    params.p0 = r.pod<double>();
    params.p1 = r.pod<double>();
    params.p2 = r.pod<double>();
    dag.add_node(type, static_cast<Priority>(priority), params);
    DagNode& node = dag.node(id);
    node.rank = r.pod<std::int32_t>();
    node.affinity_core = r.pod<std::int32_t>();
    node.phase = r.pod<std::int32_t>();
    const auto degree = r.pod<std::uint32_t>();
    r.skip(degree * kEdgeWireBytes);
    total_edges += degree;
  }
  DAS_CHECK_MSG(total_edges == declared_edges,
                "decode_dag: edge count mismatch");
  for (NodeId id = 0; id < n; ++id) {
    edge_reader.skip(kNodeWireBytes - sizeof(std::uint32_t));
    const auto degree = edge_reader.pod<std::uint32_t>();
    for (std::uint32_t j = 0; j < degree; ++j) {
      const auto to = edge_reader.pod<NodeId>();
      const auto delay_s = edge_reader.pod<double>();
      DAS_CHECK_MSG(to >= 0 && to < n, "decode_dag: edge target out of range");
      dag.add_edge(id, to, delay_s);
    }
  }
  dag.seal();
  return dag;
}

void encode_tenant_config(const TenantConfig& cfg, WireWriter& w) {
  w.str(cfg.name);
  w.pod(cfg.weight);
  w.pod(static_cast<std::int32_t>(cfg.max_in_flight));
  w.pod(cfg.max_queued_tasks);
}

TenantConfig decode_tenant_config(WireReader& r) {
  TenantConfig cfg;
  cfg.name = r.str();
  cfg.weight = r.pod<double>();
  cfg.max_in_flight = r.pod<std::int32_t>();
  cfg.max_queued_tasks = r.pod<std::int64_t>();
  return cfg;
}

void encode_submit_options(const SubmitOptions& opts, WireWriter& w) {
  w.pod(opts.arrival_offset_s);
}

SubmitOptions decode_submit_options(WireReader& r) {
  SubmitOptions opts;
  opts.arrival_offset_s = r.pod<double>();
  return opts;
}

void encode_run_result(const WireRunResult& res, WireWriter& w) {
  w.pod(res.makespan_s);
  w.pod(res.tasks_per_s);
  w.pod(res.tasks);
  w.pod(res.job);
  w.pod(res.arrival_s);
  w.pod(res.queue_s);
  w.str(res.tenant);
  w.pod(res.backend);
  w.pod(res.policy);
  w.pod(res.outcome);
  w.pod(res.tasks_reexecuted);
}

WireRunResult decode_run_result(WireReader& r) {
  WireRunResult res;
  res.makespan_s = r.pod<double>();
  res.tasks_per_s = r.pod<double>();
  res.tasks = r.pod<std::int64_t>();
  res.job = r.pod<std::int64_t>();
  res.arrival_s = r.pod<double>();
  res.queue_s = r.pod<double>();
  res.tenant = r.str();
  res.backend = r.pod<std::uint8_t>();
  res.policy = r.pod<std::uint8_t>();
  res.outcome = r.pod<std::uint8_t>();
  DAS_CHECK_MSG(res.outcome <= 1, "decode_run_result: bad outcome byte");
  res.tasks_reexecuted = r.pod<std::int64_t>();
  return res;
}

}  // namespace das::net
