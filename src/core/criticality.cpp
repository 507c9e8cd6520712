#include "core/criticality.hpp"

#include <algorithm>
#include <cmath>

#include "core/cost_expr.hpp"
#include "util/assert.hpp"

namespace das {

namespace {

/// Node weight: 1.0 or the cost model's width-1 estimate on the reference
/// cluster at its base speed.
double node_weight(const DagNode& n, const CriticalityOptions& opts) {
  if (opts.registry == nullptr) return 1.0;
  DAS_CHECK_MSG(opts.reference_cluster != nullptr,
                "reference_cluster required for cost-weighted criticality");
  const TaskTypeInfo& info = opts.registry->info(n.type);
  if (info.cost.kind == CostExpr::Kind::kNone) return 1.0;
  CostQuery q;
  q.place = ExecutionPlace{opts.reference_cluster->first_core, 1};
  q.core = opts.reference_cluster->first_core;
  q.speed = opts.reference_cluster->base_speed;
  q.bw_share = 1.0;
  q.cluster = opts.reference_cluster;
  return std::max(cost_expr_eval(info.cost, n.params, q), 1e-12);
}

}  // namespace

std::vector<double> bottom_levels(const Dag& dag, const CriticalityOptions& opts) {
  const std::vector<NodeId> order = dag.topological_order();
  std::vector<double> level(static_cast<std::size_t>(dag.num_nodes()), 0.0);
  // Process in reverse topological order: successors are final.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId n = *it;
    const DagNode& node = dag.node(n);
    double best_succ = 0.0;
    for (const DagEdge& e : dag.successors(n))
      best_succ = std::max(best_succ, level[static_cast<std::size_t>(e.to)]);
    level[static_cast<std::size_t>(n)] = node_weight(node, opts) + best_succ;
  }
  return level;
}

std::vector<double> top_levels(const Dag& dag, const CriticalityOptions& opts) {
  const std::vector<NodeId> order = dag.topological_order();
  std::vector<double> level(static_cast<std::size_t>(dag.num_nodes()), 0.0);
  for (NodeId n : order) {
    const DagNode& node = dag.node(n);
    const double here = level[static_cast<std::size_t>(n)] + node_weight(node, opts);
    for (const DagEdge& e : dag.successors(n)) {
      auto& succ = level[static_cast<std::size_t>(e.to)];
      succ = std::max(succ, here);
    }
  }
  // Include the node itself, like bottom_levels.
  for (NodeId n : order)
    level[static_cast<std::size_t>(n)] += node_weight(dag.node(n), opts);
  return level;
}

int infer_criticality(Dag& dag, const CriticalityOptions& opts) {
  DAS_CHECK(dag.num_nodes() > 0);
  const std::vector<double> bottom = bottom_levels(dag, opts);
  const std::vector<double> top = top_levels(dag, opts);
  const double longest = *std::max_element(bottom.begin(), bottom.end());
  // Tolerance for float accumulation along long weighted paths.
  const double eps = 1e-9 * std::max(longest, 1.0);

  int marked = 0;
  for (NodeId n = 0; n < dag.num_nodes(); ++n) {
    DagNode& node = dag.node(n);
    bool high = false;
    if (opts.mark_critical_path) {
      // top + bottom double-counts the node's own weight.
      const double through = top[static_cast<std::size_t>(n)] +
                             bottom[static_cast<std::size_t>(n)] -
                             node_weight(node, opts);
      high = through >= longest - eps;
    }
    if (!high && opts.fanout_threshold > 0 &&
        static_cast<int>(dag.num_successors(n)) >= opts.fanout_threshold) {
      high = true;
    }
    node.priority = high ? Priority::kHigh : Priority::kLow;
    if (high) ++marked;
  }
  return marked;
}

}  // namespace das
