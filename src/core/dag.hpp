#pragma once
// Task DAG representation (paper §2).
//
// A Dag is built ahead of execution (static DAG). Each node carries a type
// (keys the PTT), a priority (high = critical), the cost-model parameters,
// and — for the real-thread engine — an optional work closure executed
// cooperatively by all participants of the chosen execution place.
//
// Storage is flat. Nodes are trivially copyable records, so building a DAG
// appends them in place and vector growth relocates them with memcpy. Work
// closures live in a side table (work()) that the Dag allocates only once
// some node carries one: DES-only DAGs never pay for a std::function.
// add_edge appends {from, to, delay} to one staging vector. seal() turns the
// staged edges into a CSR arena (offsets + one contiguous edge array) with a
// stable counting sort by source node, in the same sweep that snapshots the
// submit metadata below. Per node, edges sealed earlier come first, then the
// newly staged ones in insertion order.
//
// successors() returns a span into the arena. On a DAG with staged edges it
// seals first, so edges added after a seal still show up; that makes it, like
// seal(), logically const but not thread-safe until the DAG is sealed.
// Engines seal at submit, and every workload builder returns sealed DAGs, so
// the engines' concurrent readers only ever see a sealed DAG and the
// completion fan-out walks a flat span.

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "core/task_type.hpp"
#include "util/assert.hpp"

namespace das {

using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Identity of one submitted DAG (a *job*) inside an engine's job service.
/// Engines allocate ids monotonically per engine instance; task records carry
/// their job id so multiple DAGs can interleave on the same workers, queues
/// and PTT (the runtime is persistent — paper §4.1.1).
using JobId = std::int64_t;
inline constexpr JobId kInvalidJob = -1;

/// Context a participant receives when executing (real-thread engine).
struct ExecContext {
  int rank = 0;    ///< 0..width-1; rank 0 need not be the leader core
  int width = 1;
  int leader = 0;  ///< leader core of the execution place
  int core = 0;    ///< the participant's core
};

using WorkFn = std::function<void(const ExecContext&)>;

/// Dependency edge. `delay_s` models a release latency between the
/// producer's completion and the consumer becoming ready — used for
/// cross-rank messages in the DES distributed-memory experiments. The
/// real-thread engine ignores it (real communication runs through das::net).
struct DagEdge {
  NodeId to = kInvalidNode;
  double delay_s = 0.0;
};

struct DagNode {
  TaskTypeId type = kInvalidTaskType;
  Priority priority = Priority::kLow;
  TaskParams params;
  int num_predecessors = 0;     ///< maintained by add_edge
  int rank = 0;                 ///< scheduling domain (MPI-rank analogue)
  int affinity_core = -1;       ///< waking-core hint; -1 = released-by core
  int phase = 0;                ///< stats phase tag (application iteration)
};
static_assert(std::is_trivially_copyable_v<DagNode>);

class Dag {
 public:
  /// One node's out-edges, contiguous, in insertion order.
  using SuccessorRange = std::span<const DagEdge>;

  /// `work` may be empty (DES-only nodes); see work().
  NodeId add_node(TaskTypeId type, Priority priority = Priority::kLow,
                  const TaskParams& params = {}, WorkFn work = {});
  /// Adds the dependency edge from -> to. Rejects self-edges.
  void add_edge(NodeId from, NodeId to, double delay_s = 0.0);
  /// Pre-sizes storage for a builder that knows its final size.
  void reserve(std::size_t nodes, std::size_t edges) {
    nodes_.reserve(nodes);
    staged_.reserve(edges);
  }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  std::size_t num_edges() const { return edges_.size() + staged_.size(); }
  // Inline: engines resolve a node once or twice per event, and an outlined
  // call costs more than the bounds check itself.
  DagNode& node(NodeId id) {
    DAS_CHECK(id >= 0 && id < num_nodes());
    return nodes_[static_cast<std::size_t>(id)];
  }
  const DagNode& node(NodeId id) const {
    DAS_CHECK(id >= 0 && id < num_nodes());
    return nodes_[static_cast<std::size_t>(id)];
  }
  /// The node's work closure, or an empty function if it has none. The
  /// reference stays valid until the next add_node.
  const WorkFn& work(NodeId id) const;

  /// The node's out-edges in insertion order; seals first if edges are
  /// staged (see the header comment).
  SuccessorRange successors(NodeId id) const {
    DAS_ASSERT(id >= 0 && id < num_nodes());
    if (!sealed()) seal();
    const auto i = static_cast<std::size_t>(id);
    return {edges_.data() + off_[i], edges_.data() + off_[i + 1]};
  }
  std::size_t num_successors(NodeId id) const { return successors(id).size(); }

  /// Folds every staged edge into the CSR arena and snapshots the submit
  /// metadata below, so engines validate and release a million-node DAG
  /// without rescanning every node per submit. Idempotent: a no-op on a
  /// sealed DAG. Engines call it at submit; not thread-safe while edges are
  /// staged (see the header comment).
  void seal() const;

  // --- sealed metadata (valid after seal(); snapshots node fields as of
  // the seal — post-seal mutations of rank/type are not re-reflected) -----

  /// Per-node predecessor counts, contiguous (engines memcpy this into a
  /// job's countdown array).
  const std::vector<std::int32_t>& predecessor_counts() const {
    DAS_ASSERT(sealed());
    return preds_counts_;
  }
  /// Nodes with no predecessors, ascending.
  const std::vector<NodeId>& root_ids() const {
    DAS_ASSERT(sealed());
    return roots_cache_;
  }
  /// Every distinct task type, in first-appearance order.
  const std::vector<TaskTypeId>& distinct_types() const {
    DAS_ASSERT(sealed());
    return distinct_types_;
  }
  int min_node_rank() const { return min_rank_; }
  int max_node_rank() const { return max_rank_; }
  /// Minimum delay_s over edges whose endpoints live on different ranks,
  /// +infinity when every edge is rank-local. This is the conservative
  /// parallel DES lookahead: no rank can affect another sooner than this,
  /// so all ranks may safely simulate a window of this width concurrently
  /// (sim/engine.hpp).
  double min_cross_rank_delay() const {
    DAS_ASSERT(sealed());
    return min_cross_rank_delay_;
  }

  /// Nodes with no predecessors (the initially-ready set).
  std::vector<NodeId> roots() const;
  /// True iff the edge relation is acyclic (Kahn's algorithm).
  bool is_acyclic() const;
  /// A topological order; DAS_CHECKs acyclicity.
  std::vector<NodeId> topological_order() const;
  /// Longest path length measured in nodes (the critical path of the paper's
  /// parallelism definition). DAS_CHECKs acyclicity.
  int longest_path_nodes() const;
  /// DAG parallelism = total tasks / longest path (paper §2, Fig. 1).
  double dag_parallelism() const;

 private:
  struct StagedEdge {
    NodeId from;
    NodeId to;
    double delay_s;
  };

  bool sealed() const {
    return staged_.empty() && off_.size() == nodes_.size() + 1;
  }

  std::vector<DagNode> nodes_;
  std::vector<WorkFn> work_;  // closure side table; empty until one is added
  // Edges added since the last seal, in insertion order. Mutable with the
  // CSR members so seal() can run behind const engine references; see the
  // thread-safety note in the header comment.
  mutable std::vector<StagedEdge> staged_;
  // Sealed CSR arena: off_ has num_nodes()+1 offsets into edges_.
  mutable std::vector<std::int32_t> off_;
  mutable std::vector<DagEdge> edges_;
  // Sealed metadata (see accessors), snapshot by seal().
  mutable std::vector<std::int32_t> preds_counts_;
  mutable std::vector<NodeId> roots_cache_;
  mutable std::vector<TaskTypeId> distinct_types_;
  mutable int min_rank_ = 0;
  mutable int max_rank_ = 0;
  mutable double min_cross_rank_delay_ =
      std::numeric_limits<double>::infinity();
};

}  // namespace das
