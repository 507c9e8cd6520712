#include "kernels/cost_models.hpp"

#include "core/cost_expr.hpp"
#include "util/assert.hpp"

// Each factory builds the tagged closed form (core/task_type.hpp) and wraps
// it in a CostExprFn, so the returned CostFn and an engine evaluating the
// expression directly share ONE implementation of the arithmetic
// (core/cost_expr.hpp) — bitwise-identical results either way, and
// register_type can recover the expression from the CostFn without any
// change at the registration sites. The per-kernel model documentation
// lives with the evaluation in cost_expr.hpp and the header comments here.

namespace das::kernels {

CostFn matmul_cost(CostModelConfig cfg) {
  CostExpr e;
  e.kind = CostExpr::Kind::kMatMul;
  e.u.matmul = CostExpr::MatMul{cfg.matmul_gflops, cfg.l1_fit,
                                cfg.l2_fit,        cfg.mem_fit,
                                cfg.matmul_alpha,  cfg.sync_overhead_s};
  return CostExprFn{e};
}

CostFn copy_cost(CostModelConfig cfg) {
  CostExpr e;
  e.kind = CostExpr::Kind::kCopy;
  e.u.copy =
      CostExpr::Copy{cfg.copy_single_core_bw_frac, cfg.copy_cpu_gbs_per_speed};
  return CostExprFn{e};
}

CostFn stencil_cost(CostModelConfig cfg) {
  CostExpr e;
  e.kind = CostExpr::Kind::kStencil;
  e.u.stencil = CostExpr::Stencil{cfg.matmul_gflops, cfg.stencil_flops_per_point,
                                  cfg.stencil_alpha, cfg.sync_overhead_s};
  return CostExprFn{e};
}

CostFn heat_compute_cost(CostModelConfig cfg) {
  CostExpr e;
  e.kind = CostExpr::Kind::kHeatBand;
  e.u.heat =
      CostExpr::HeatBand{cfg.matmul_gflops, cfg.stencil_flops_per_point};
  return CostExprFn{e};
}

CostFn fixed_cost(double seconds) {
  DAS_CHECK(seconds >= 0.0);
  CostExpr e;
  e.kind = CostExpr::Kind::kFixed;
  e.u.fixed = CostExpr::Fixed{seconds};
  return CostExprFn{e};
}

CostFn comm_cost(double latency_s, double bw_gbs) {
  DAS_CHECK(latency_s >= 0.0 && bw_gbs > 0.0);
  CostExpr e;
  e.kind = CostExpr::Kind::kComm;
  e.u.comm = CostExpr::Comm{latency_s, bw_gbs};
  return CostExprFn{e};
}

CostFn kmeans_map_cost(double flops_rate_g) {
  CostExpr e;
  e.kind = CostExpr::Kind::kKmeansMap;
  e.u.kmeans = CostExpr::Kmeans{flops_rate_g};
  return CostExprFn{e};
}

CostFn kmeans_reduce_cost(double flops_rate_g) {
  CostExpr e;
  e.kind = CostExpr::Kind::kKmeansReduce;
  e.u.kmeans = CostExpr::Kmeans{flops_rate_g};
  return CostExprFn{e};
}

}  // namespace das::kernels
