#include "workloads/synthetic_dag.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace das::workloads {

Dag make_synthetic_dag(const SyntheticDagSpec& spec) {
  DAS_CHECK(spec.type != kInvalidTaskType);
  DAS_CHECK(spec.parallelism >= 1);
  const int layers = std::max(1, spec.total_tasks / spec.parallelism);

  Dag dag;
  dag.reserve(static_cast<std::size_t>(layers) * spec.parallelism,
              static_cast<std::size_t>(layers - 1) * spec.parallelism);
  NodeId prev_critical = kInvalidNode;
  for (int layer = 0; layer < layers; ++layer) {
    NodeId critical = kInvalidNode;
    for (int j = 0; j < spec.parallelism; ++j) {
      const Priority prio = j == 0 ? Priority::kHigh : Priority::kLow;
      const NodeId n = dag.add_node(spec.type, prio, spec.params, spec.work);
      if (j == 0) critical = n;
      if (prev_critical != kInvalidNode) dag.add_edge(prev_critical, n);
    }
    prev_critical = critical;
  }
  DAS_ASSERT(dag.num_nodes() == layers * spec.parallelism);
  dag.seal();  // builders hand out sealed (CSR-compacted) DAGs
  return dag;
}

SyntheticDagSpec paper_matmul_spec(TaskTypeId matmul, int parallelism,
                                   double scale, int tile) {
  DAS_CHECK(scale > 0.0 && scale <= 1.0);
  SyntheticDagSpec s;
  s.type = matmul;
  s.parallelism = parallelism;
  s.total_tasks = static_cast<int>(32000 * scale);
  s.params.p0 = static_cast<double>(tile);
  return s;
}

SyntheticDagSpec paper_copy_spec(TaskTypeId copy, int parallelism, double scale) {
  DAS_CHECK(scale > 0.0 && scale <= 1.0);
  SyntheticDagSpec s;
  s.type = copy;
  s.parallelism = parallelism;
  s.total_tasks = static_cast<int>(10000 * scale);
  s.params.p0 = 1024.0 * 1024.0;  // doubles streamed per task
  return s;
}

SyntheticDagSpec paper_stencil_spec(TaskTypeId stencil, int parallelism,
                                    double scale) {
  DAS_CHECK(scale > 0.0 && scale <= 1.0);
  SyntheticDagSpec s;
  s.type = stencil;
  s.parallelism = parallelism;
  s.total_tasks = static_cast<int>(20000 * scale);
  s.params.p0 = 1024.0;  // grid dimension per task
  return s;
}

}  // namespace das::workloads
