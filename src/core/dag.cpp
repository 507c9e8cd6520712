#include "core/dag.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace das {

namespace {
const WorkFn kNoWork;
}  // namespace

NodeId Dag::add_node(TaskTypeId type, Priority priority,
                     const TaskParams& params, WorkFn work) {
  DAS_CHECK(type != kInvalidTaskType);
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.emplace_back(type, priority, params);
  if (work) {
    work_.resize(nodes_.size());
    work_.back() = std::move(work);
  }
  return id;
}

void Dag::add_edge(NodeId from, NodeId to, double delay_s) {
  DAS_CHECK(from >= 0 && from < num_nodes());
  DAS_CHECK(to >= 0 && to < num_nodes());
  DAS_CHECK_MSG(from != to, "self-edges are not allowed");
  DAS_CHECK(delay_s >= 0.0);
  staged_.push_back(StagedEdge{from, to, delay_s});
  nodes_[static_cast<std::size_t>(to)].num_predecessors++;
}

const WorkFn& Dag::work(NodeId id) const {
  DAS_ASSERT(id >= 0 && id < num_nodes());
  const auto i = static_cast<std::size_t>(id);
  return i < work_.size() ? work_[i] : kNoWork;
}

void Dag::seal() const {
  if (sealed()) return;
  const std::size_t n = nodes_.size();
  const std::size_t old_n = off_.empty() ? 0 : off_.size() - 1;

  // Stable counting sort by source. off[i + 1] first counts node i's staged
  // edges; the sweep turns it into the slot where they start (after the
  // node's previously sealed edges), and the scatter advances it to the
  // node's end, which is node i + 1's start.
  std::vector<std::int32_t> off(n + 1, 0);
  for (const StagedEdge& e : staged_)
    ++off[static_cast<std::size_t>(e.from) + 1];
  std::vector<DagEdge> edges(num_edges());

  // The same sweep snapshots the submit metadata, so engines neither
  // revalidate nor rescan the node array per submit (K-means resubmits the
  // same sealed DAG every iteration and pays this once).
  preds_counts_.resize(n);
  roots_cache_.clear();
  distinct_types_.clear();
  min_rank_ = n > 0 ? nodes_[0].rank : 0;
  max_rank_ = min_rank_;
  double min_cross = std::numeric_limits<double>::infinity();
  // Conservative DES lookahead (min_cross_rank_delay()).
  auto note_edge = [&](std::size_t from, const DagEdge& e) {
    if (nodes_[from].rank != nodes_[static_cast<std::size_t>(e.to)].rank &&
        e.delay_s < min_cross)
      min_cross = e.delay_s;
  };
  std::int32_t at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < old_n) {
      for (std::int32_t k = off_[i]; k < off_[i + 1]; ++k) {
        const DagEdge& e = edges_[static_cast<std::size_t>(k)];
        note_edge(i, e);
        edges[static_cast<std::size_t>(at++)] = e;
      }
    }
    const std::int32_t staged = off[i + 1];
    off[i + 1] = at;
    at += staged;

    const DagNode& node = nodes_[i];
    preds_counts_[i] = node.num_predecessors;
    if (node.num_predecessors == 0)
      roots_cache_.push_back(static_cast<NodeId>(i));
    min_rank_ = std::min(min_rank_, node.rank);
    max_rank_ = std::max(max_rank_, node.rank);
    if (std::find(distinct_types_.begin(), distinct_types_.end(), node.type) ==
        distinct_types_.end())
      distinct_types_.push_back(node.type);
  }
  for (const StagedEdge& s : staged_) {
    const auto from = static_cast<std::size_t>(s.from);
    const DagEdge e{s.to, s.delay_s};
    note_edge(from, e);
    edges[static_cast<std::size_t>(off[from + 1]++)] = e;
  }
  DAS_ASSERT(static_cast<std::size_t>(at) == edges.size());

  min_cross_rank_delay_ = min_cross;
  edges_ = std::move(edges);
  off_ = std::move(off);
  // Release the staging vector outright (swap, not clear): after a seal the
  // arena owns every edge, and steady-state DAG reuse should not pin a
  // second copy's worth of memory.
  std::vector<StagedEdge>().swap(staged_);
}

std::vector<NodeId> Dag::roots() const {
  std::vector<NodeId> r;
  for (NodeId i = 0; i < num_nodes(); ++i)
    if (nodes_[static_cast<std::size_t>(i)].num_predecessors == 0) r.push_back(i);
  return r;
}

bool Dag::is_acyclic() const {
  seal();
  std::vector<int> indeg(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) indeg[i] = nodes_[i].num_predecessors;
  std::vector<NodeId> stack = roots();
  std::size_t visited = 0;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    ++visited;
    for (const DagEdge& e : successors(n))
      if (--indeg[static_cast<std::size_t>(e.to)] == 0) stack.push_back(e.to);
  }
  return visited == nodes_.size();
}

std::vector<NodeId> Dag::topological_order() const {
  seal();
  std::vector<int> indeg(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) indeg[i] = nodes_[i].num_predecessors;
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  std::vector<NodeId> stack = roots();
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    order.push_back(n);
    for (const DagEdge& e : successors(n))
      if (--indeg[static_cast<std::size_t>(e.to)] == 0) stack.push_back(e.to);
  }
  DAS_CHECK_MSG(order.size() == nodes_.size(), "DAG contains a cycle");
  return order;
}

int Dag::longest_path_nodes() const {
  if (nodes_.empty()) return 0;
  const std::vector<NodeId> order = topological_order();
  std::vector<int> depth(nodes_.size(), 1);
  int best = 1;
  for (NodeId n : order) {
    for (const DagEdge& e : successors(n)) {
      auto& d = depth[static_cast<std::size_t>(e.to)];
      d = std::max(d, depth[static_cast<std::size_t>(n)] + 1);
      best = std::max(best, d);
    }
  }
  return best;
}

double Dag::dag_parallelism() const {
  const int lp = longest_path_nodes();
  if (lp == 0) return 0.0;
  return static_cast<double>(num_nodes()) / static_cast<double>(lp);
}

}  // namespace das
