// Unit tests for the DAG representation and the synthetic layered generator
// of paper §4.2.2.

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <utility>

#include "core/dag.hpp"
#include "util/assert.hpp"
#include "workloads/synthetic_dag.hpp"

namespace das {
namespace {

constexpr TaskTypeId kT = 0;

// Nodes relocate with memcpy and carry no closure (see Dag::work).
static_assert(std::is_trivially_copyable_v<DagNode>);

using EdgeList = std::vector<std::pair<NodeId, double>>;

EdgeList out_edges(const Dag& d, NodeId id) {
  EdgeList out;
  for (const DagEdge& e : d.successors(id)) out.emplace_back(e.to, e.delay_s);
  return out;
}

TEST(Dag, BuilderBasics) {
  Dag d;
  const NodeId a = d.add_node(kT, Priority::kHigh);
  const NodeId b = d.add_node(kT);
  const NodeId c = d.add_node(kT);
  d.add_edge(a, b);
  d.add_edge(a, c, 0.5);
  EXPECT_EQ(d.num_nodes(), 3);
  EXPECT_EQ(d.num_edges(), 2u);
  EXPECT_EQ(d.successors(a).size(), 2u);
  EXPECT_DOUBLE_EQ(d.successors(a)[1].delay_s, 0.5);
  // The same answers after CSR compaction, and for edges staged on top of a
  // sealed arena (the dynamic-DAG overflow path).
  d.seal();
  EXPECT_EQ(d.successors(a).size(), 2u);
  EXPECT_DOUBLE_EQ(d.successors(a)[1].delay_s, 0.5);
  d.add_edge(b, c, 0.25);
  EXPECT_EQ(d.num_edges(), 3u);
  EXPECT_EQ(d.successors(b).size(), 1u);
  EXPECT_DOUBLE_EQ(d.successors(b)[0].delay_s, 0.25);
  EXPECT_EQ(d.node(b).num_predecessors, 1);
  EXPECT_EQ(d.node(a).priority, Priority::kHigh);
  EXPECT_EQ(d.node(b).priority, Priority::kLow);
  EXPECT_EQ(d.roots(), std::vector<NodeId>{a});
}

TEST(Dag, EdgesStagedOutOfSourceOrderKeepInsertionOrderPerNode) {
  // The halo builders add a rank's local edges and then edges from the
  // neighbouring ranks' previous layer, so sources interleave in staging.
  Dag d;
  for (int i = 0; i < 6; ++i) d.add_node(kT);
  d.add_edge(2, 3, 0.1);
  d.add_edge(0, 4, 0.2);
  d.add_edge(2, 5, 0.3);
  d.add_edge(1, 3, 0.4);
  d.add_edge(0, 3, 0.5);
  d.add_edge(2, 4, 0.6);
  d.seal();
  EXPECT_EQ(out_edges(d, 0), (EdgeList{{4, 0.2}, {3, 0.5}}));
  EXPECT_EQ(out_edges(d, 1), (EdgeList{{3, 0.4}}));
  EXPECT_EQ(out_edges(d, 2), (EdgeList{{3, 0.1}, {5, 0.3}, {4, 0.6}}));
  for (NodeId i = 3; i < 6; ++i) EXPECT_TRUE(d.successors(i).empty());
  EXPECT_EQ(d.predecessor_counts(),
            (std::vector<std::int32_t>{0, 0, 0, 3, 2, 1}));
}

TEST(Dag, AddEdgeAfterSealAppendsAndResealRefreshesMetadata) {
  Dag d;
  const NodeId a = d.add_node(kT);
  const NodeId b = d.add_node(kT);
  const NodeId c = d.add_node(kT);
  const NodeId e = d.add_node(kT);
  d.node(c).rank = 1;
  d.node(e).rank = 1;
  d.add_edge(a, b);
  d.add_edge(a, c, 0.5);
  d.seal();
  EXPECT_EQ(d.num_edges(), 2u);
  EXPECT_EQ(d.predecessor_counts(), (std::vector<std::int32_t>{0, 1, 1, 0}));
  EXPECT_EQ(d.root_ids(), (std::vector<NodeId>{a, e}));
  EXPECT_DOUBLE_EQ(d.min_cross_rank_delay(), 0.5);

  // A cross-rank edge and a node (with an edge) added after the seal.
  d.add_edge(a, e, 0.25);
  const NodeId f = d.add_node(kT);
  d.add_edge(e, f, 0.125);
  EXPECT_EQ(d.num_edges(), 4u);
  d.seal();
  EXPECT_EQ(d.num_edges(), 4u);
  EXPECT_EQ(d.predecessor_counts(), (std::vector<std::int32_t>{0, 1, 1, 1, 1}));
  EXPECT_EQ(d.root_ids(), (std::vector<NodeId>{a}));
  EXPECT_DOUBLE_EQ(d.min_cross_rank_delay(), 0.125);
  // The late edge follows a's sealed ones.
  EXPECT_EQ(out_edges(d, a), (EdgeList{{b, 0.0}, {c, 0.5}, {e, 0.25}}));
  EXPECT_EQ(out_edges(d, e), (EdgeList{{f, 0.125}}));
}

TEST(Dag, SuccessorsAgreeBeforeAndAfterSeal) {
  const std::vector<std::pair<NodeId, NodeId>> edges{
      {3, 4}, {0, 1}, {3, 5}, {0, 2}, {1, 4}, {0, 5}, {2, 3}, {1, 5}};
  Dag staged;     // queried with every edge staged
  Dag sealed;     // sealed before it is queried
  Dag resealed;   // sealed halfway through the edge list
  for (Dag* d : {&staged, &sealed, &resealed})
    for (int i = 0; i < 6; ++i) d->add_node(kT);
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const double delay = static_cast<double>(k) / 8;
    for (Dag* d : {&staged, &sealed, &resealed})
      d->add_edge(edges[k].first, edges[k].second, delay);
    if (k == edges.size() / 2) resealed.seal();
  }
  sealed.seal();
  for (NodeId i = 0; i < 6; ++i) {
    const EdgeList want = out_edges(staged, i);
    EXPECT_EQ(out_edges(sealed, i), want) << "node " << i;
    EXPECT_EQ(out_edges(resealed, i), want) << "node " << i;
    EXPECT_EQ(staged.num_successors(i), want.size());
  }
  EXPECT_EQ(out_edges(staged, 0),
            (EdgeList{{1, 0.125}, {2, 0.375}, {5, 0.625}}));
}

TEST(Dag, WorkSideTableHoldsClosures) {
  Dag d;
  int calls = 0;
  const NodeId bare = d.add_node(kT);
  const NodeId with = d.add_node(kT, Priority::kLow, {},
                                 [&calls](const ExecContext&) { ++calls; });
  const NodeId after = d.add_node(kT, Priority::kHigh, {}, WorkFn{});
  EXPECT_FALSE(d.work(bare));
  EXPECT_FALSE(d.work(after));
  ASSERT_TRUE(d.work(with));
  d.work(with)(ExecContext{});
  EXPECT_EQ(calls, 1);
}

TEST(Dag, RejectsBadEdges) {
  Dag d;
  const NodeId a = d.add_node(kT);
  EXPECT_THROW(d.add_edge(a, a), PreconditionError);
  EXPECT_THROW(d.add_edge(a, 5), PreconditionError);
  EXPECT_THROW(d.add_edge(-1, a), PreconditionError);
  EXPECT_THROW(d.add_edge(a, 0, -1.0), PreconditionError);
}

TEST(Dag, AcyclicityDetection) {
  Dag d;
  const NodeId a = d.add_node(kT);
  const NodeId b = d.add_node(kT);
  const NodeId c = d.add_node(kT);
  d.add_edge(a, b);
  d.add_edge(b, c);
  EXPECT_TRUE(d.is_acyclic());
  d.add_edge(c, a);  // closes a cycle
  EXPECT_FALSE(d.is_acyclic());
  EXPECT_THROW(d.topological_order(), PreconditionError);
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  Dag d;
  std::vector<NodeId> n;
  for (int i = 0; i < 8; ++i) n.push_back(d.add_node(kT));
  d.add_edge(n[0], n[3]);
  d.add_edge(n[1], n[3]);
  d.add_edge(n[3], n[5]);
  d.add_edge(n[2], n[5]);
  d.add_edge(n[5], n[7]);
  const auto order = d.topological_order();
  ASSERT_EQ(order.size(), 8u);
  auto pos = [&](NodeId x) {
    return std::find(order.begin(), order.end(), x) - order.begin();
  };
  EXPECT_LT(pos(n[0]), pos(n[3]));
  EXPECT_LT(pos(n[1]), pos(n[3]));
  EXPECT_LT(pos(n[3]), pos(n[5]));
  EXPECT_LT(pos(n[5]), pos(n[7]));
}

TEST(Dag, ParallelismMatchesPaperDefinition) {
  // The paper's Fig. 1: 12 tasks, longest path 3 -> parallelism 4. Build the
  // same shape: 3 layers of 4, critical chain through one node per layer.
  Dag d;
  std::vector<std::vector<NodeId>> layer(3);
  for (int l = 0; l < 3; ++l)
    for (int j = 0; j < 4; ++j)
      layer[static_cast<std::size_t>(l)].push_back(d.add_node(kT));
  for (int l = 0; l + 1 < 3; ++l)
    for (NodeId next : layer[static_cast<std::size_t>(l) + 1])
      d.add_edge(layer[static_cast<std::size_t>(l)][0], next);
  EXPECT_EQ(d.longest_path_nodes(), 3);
  EXPECT_DOUBLE_EQ(d.dag_parallelism(), 4.0);
}

TEST(Dag, EmptyAndSingleton) {
  Dag d;
  EXPECT_EQ(d.longest_path_nodes(), 0);
  EXPECT_DOUBLE_EQ(d.dag_parallelism(), 0.0);
  d.add_node(kT);
  EXPECT_EQ(d.longest_path_nodes(), 1);
  EXPECT_DOUBLE_EQ(d.dag_parallelism(), 1.0);
}

class SyntheticDagTest : public ::testing::TestWithParam<int> {};

TEST_P(SyntheticDagTest, StructureMatchesSpec) {
  const int P = GetParam();
  workloads::SyntheticDagSpec spec;
  spec.type = kT;
  spec.parallelism = P;
  spec.total_tasks = 20 * P;
  const Dag d = workloads::make_synthetic_dag(spec);

  EXPECT_EQ(d.num_nodes(), 20 * P);
  EXPECT_TRUE(d.is_acyclic());
  // Exactly one high-priority (critical) task per layer.
  int high = 0;
  for (NodeId i = 0; i < d.num_nodes(); ++i)
    if (d.node(i).priority == Priority::kHigh) ++high;
  EXPECT_EQ(high, 20);
  // DAG parallelism equals P by the paper's definition.
  EXPECT_DOUBLE_EQ(d.dag_parallelism(), P);
  // Only the critical task releases the next layer: its successor count is P
  // (except the last layer's).
  for (NodeId i = 0; i < d.num_nodes(); ++i) {
    const DagNode& n = d.node(i);
    const bool last_layer = i >= (20 - 1) * P;
    if (n.priority == Priority::kHigh && !last_layer) {
      EXPECT_EQ(d.successors(i).size(), static_cast<std::size_t>(P));
    } else {
      EXPECT_TRUE(d.successors(i).empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Parallelism, SyntheticDagTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SyntheticDag, PaperSpecsCarryPaperParameters) {
  const auto mm = workloads::paper_matmul_spec(kT, 3, 0.1);
  EXPECT_EQ(mm.total_tasks, 3200);
  EXPECT_DOUBLE_EQ(mm.params.p0, 64.0);
  const auto cp = workloads::paper_copy_spec(kT, 2, 1.0);
  EXPECT_EQ(cp.total_tasks, 10000);
  EXPECT_DOUBLE_EQ(cp.params.p0, 1024.0 * 1024.0);
  const auto st = workloads::paper_stencil_spec(kT, 6, 0.5);
  EXPECT_EQ(st.total_tasks, 10000);
  EXPECT_DOUBLE_EQ(st.params.p0, 1024.0);
}

TEST(SyntheticDag, RejectsInvalidSpec) {
  workloads::SyntheticDagSpec spec;  // type unset
  EXPECT_THROW(workloads::make_synthetic_dag(spec), PreconditionError);
}

}  // namespace
}  // namespace das
