#include "kernels/cost_models.hpp"

#include "util/assert.hpp"

// Each factory fills the tagged closed form (core/task_type.hpp) with its
// calibration constants; the arithmetic lives once, in core/cost_expr.hpp,
// next to the per-kernel model documentation.

namespace das::kernels {

CostExpr matmul_cost(CostModelConfig cfg) {
  CostExpr e;
  e.kind = CostExpr::Kind::kMatMul;
  e.u.matmul = CostExpr::MatMul{cfg.matmul_gflops, cfg.l1_fit,
                                cfg.l2_fit,        cfg.mem_fit,
                                cfg.matmul_alpha,  cfg.sync_overhead_s};
  return e;
}

CostExpr copy_cost(CostModelConfig cfg) {
  CostExpr e;
  e.kind = CostExpr::Kind::kCopy;
  e.u.copy =
      CostExpr::Copy{cfg.copy_single_core_bw_frac, cfg.copy_cpu_gbs_per_speed};
  return e;
}

CostExpr stencil_cost(CostModelConfig cfg) {
  CostExpr e;
  e.kind = CostExpr::Kind::kStencil;
  e.u.stencil = CostExpr::Stencil{cfg.matmul_gflops, cfg.stencil_flops_per_point,
                                  cfg.stencil_alpha, cfg.sync_overhead_s};
  return e;
}

CostExpr heat_compute_cost(CostModelConfig cfg) {
  CostExpr e;
  e.kind = CostExpr::Kind::kHeatBand;
  e.u.heat =
      CostExpr::HeatBand{cfg.matmul_gflops, cfg.stencil_flops_per_point};
  return e;
}

CostExpr fixed_cost(double seconds) {
  DAS_CHECK(seconds >= 0.0);
  CostExpr e;
  e.kind = CostExpr::Kind::kFixed;
  e.u.fixed = CostExpr::Fixed{seconds};
  return e;
}

CostExpr work_cost(double seconds) {
  DAS_CHECK(seconds >= 0.0);
  CostExpr e;
  e.kind = CostExpr::Kind::kWork;
  e.u.fixed = CostExpr::Fixed{seconds};
  return e;
}

CostExpr comm_cost(double latency_s, double bw_gbs) {
  DAS_CHECK(latency_s >= 0.0 && bw_gbs > 0.0);
  CostExpr e;
  e.kind = CostExpr::Kind::kComm;
  e.u.comm = CostExpr::Comm{latency_s, bw_gbs};
  return e;
}

CostExpr kmeans_map_cost(double flops_rate_g) {
  CostExpr e;
  e.kind = CostExpr::Kind::kKmeansMap;
  e.u.kmeans = CostExpr::Kmeans{flops_rate_g};
  return e;
}

CostExpr kmeans_reduce_cost(double flops_rate_g) {
  CostExpr e;
  e.kind = CostExpr::Kind::kKmeansReduce;
  e.u.kmeans = CostExpr::Kmeans{flops_rate_g};
  return e;
}

}  // namespace das::kernels
