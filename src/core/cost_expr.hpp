#pragma once
// Inline evaluation of the tagged CostExpr forms (core/task_type.hpp).
//
// This is the single implementation of the kernel catalog's cost
// arithmetic: the factories in src/kernels/cost_models.cpp wrap these same
// evaluations in a CostExprFn and hand THAT to the type-erased CostFn, so
// a call through the std::function and an engine calling cost_expr_eval
// directly execute the identical operation sequence — bit-for-bit equal
// doubles. (No re-association happens at the default build flags; the
// expressions below must stay textually in the documented evaluation
// order.)
//
// Both engines evaluate costs through cost_eval below: the closed form
// inline when the type has one, the std::function only for a kCallable
// type (a user-supplied lambda).

#include <algorithm>
#include <cmath>

#include "core/task_type.hpp"
#include "util/assert.hpp"

namespace das {

namespace detail {

/// Cache-fit factor for a working set of `bytes` against the participant's
/// cluster caches. Strict comparison: a working set exactly the size of the
/// cache does not fit (conflict misses / other residents). This makes the
/// 64x64 tile (8*64^2 = 32 KB) miss the A57's 32 KB L1 while fitting the
/// Denver's 64 KB one — the paper's §5.3 residency narrative.
inline double cost_expr_cache_fit(double bytes, const Cluster& cl,
                                  const CostExpr::MatMul& m) {
  if (bytes < cl.l1_kb * 1024.0) return m.l1_fit;
  if (bytes < cl.l2_kb * 1024.0) return m.l2_fit;
  return m.mem_fit;
}

}  // namespace detail

/// Evaluates a closed-form cost expression. Precondition: e.kind is not
/// kCallable (callers route kCallable through TaskTypeInfo::cost).
inline double cost_expr_eval(const CostExpr& e, const TaskParams& p,
                             const CostQuery& q) {
  switch (e.kind) {
    case CostExpr::Kind::kMatMul: {
      const CostExpr::MatMul& m = e.u.matmul;
      const double n = p.p0;
      DAS_CHECK_MSG(n >= 1.0, "matmul cost model requires p0 = tile >= 1");
      DAS_CHECK(q.cluster != nullptr);
      const double flops_total = 2.0 * n * n * n;
      const double flops_rank = flops_total / q.place.width;
      // One tile matrix (the paper's per-matrix footprint notion, §5.3).
      const double fit = detail::cost_expr_cache_fit(8.0 * n * n, *q.cluster, m);
      const double eff = 1.0 / (1.0 + m.alpha * (q.place.width - 1));
      const double rate = m.gflops * 1e9 * q.speed * fit * eff;
      return flops_rank / rate + m.sync_s * (q.place.width - 1);
    }
    case CostExpr::Kind::kCopy: {
      const CostExpr::Copy& m = e.u.copy;
      const double elems = p.p0;
      DAS_CHECK_MSG(elems >= 1.0, "copy cost model requires p0 = element count");
      DAS_CHECK(q.cluster != nullptr);
      const double bytes_rank = 16.0 * elems / q.place.width;  // read + write
      const double avail = q.cluster->mem_bw_gbs * 1e9 * q.bw_share;
      const double single = m.single_core_bw_frac * q.cluster->mem_bw_gbs * 1e9;
      const double bw_bound = std::min(single, avail / q.place.width);
      // Issue-rate bound: at deep DVFS throttle the core cannot generate
      // enough outstanding requests to saturate its bandwidth share.
      const double cpu_bound = m.cpu_gbs_per_speed * 1e9 * q.speed;
      return bytes_rank / std::min(bw_bound, cpu_bound);
    }
    case CostExpr::Kind::kStencil: {
      const CostExpr::Stencil& m = e.u.stencil;
      const double n = p.p0;
      DAS_CHECK_MSG(n >= 3.0, "stencil cost model requires p0 = grid >= 3");
      DAS_CHECK(q.cluster != nullptr);
      const double points_rank = n * n / q.place.width;
      // Two grids resident (in + out); spilling the shared L2 hurts, by an
      // amount that depends on the core class's latency hiding (Cluster::
      // stream_fit) — big out-of-order cores keep streaming, little ones
      // stall.
      const double ws_bytes = 2.0 * 8.0 * n * n;
      const double fit =
          ws_bytes <= q.cluster->l2_kb * 1024.0 ? 1.0 : q.cluster->stream_fit;
      const double eff = 1.0 / (1.0 + m.alpha * (q.place.width - 1));
      const double rate =
          (m.gflops / m.flops_per_point) * 1e9 * q.speed * fit * eff;
      return points_rank / rate + m.sync_s * (q.place.width - 1);
    }
    case CostExpr::Kind::kHeatBand: {
      const CostExpr::HeatBand& m = e.u.heat;
      const double n = p.p0;
      DAS_CHECK_MSG(n >= 3.0, "heat cost model requires p0 = grid >= 3");
      DAS_CHECK(q.cluster != nullptr);
      const int w = q.place.width;
      const double points_rank = n * n / w;
      // Cache-aggregation bonus: each participant's sub-band working set is
      // 1/w of the task's, so it fits closer to the private caches. Capped —
      // the bonus saturates once everything is L1-resident.
      const double aggr = std::min(1.0 + 0.04 * (w - 1), 1.25);
      const double rate =
          (m.gflops / m.flops_per_point) * 1e9 * q.speed * aggr;
      // Lighter sync than the tile kernels: band sweeps have no tile
      // handoff, only the assembly barrier.
      return points_rank / rate + 3e-6 * (w - 1);
    }
    case CostExpr::Kind::kFixed:
      return e.u.fixed.seconds;
    case CostExpr::Kind::kComm: {
      const CostExpr::Comm& m = e.u.comm;
      const double bytes = std::max(p.p0, 0.0);
      const double wire = m.latency_s + bytes / (m.bw_gbs * 1e9);
      // Local packing/unpacking of ghost cells: benefits mildly from cache
      // sharing when molded (paper §5.4 attributes the DAM-C/DAM-P edge on
      // Heat to exactly this effect).
      const double pack = 0.3 * wire / (1.0 + 0.5 * (q.place.width - 1));
      return wire / q.speed + pack;
    }
    case CostExpr::Kind::kKmeansMap: {
      const CostExpr::Kmeans& m = e.u.kmeans;
      const double points = p.p0, dims = p.p1, k = p.p2;
      DAS_CHECK(points >= 1.0 && dims >= 1.0 && k >= 1.0);
      const int w = q.place.width;
      const double flops = 3.0 * points * dims * k / w;
      // The paper's K-means nests the assignment loop inside a graph node,
      // so a molded task streams disjoint point ranges against shared
      // read-only centroids: per-participant working sets shrink with width
      // (mild cache aggregation), against a small assembly-sync overhead.
      // Net effect: molding is slightly cost-positive — the paper's
      // Fig. 9(c) shows the wide places dominating under DAM-P.
      const double aggr = std::min(1.0 + 0.03 * (w - 1), 1.2);
      return flops / (m.rate_g * 1e9 * q.speed * aggr) + 3e-6 * (w - 1);
    }
    case CostExpr::Kind::kKmeansReduce: {
      const CostExpr::Kmeans& m = e.u.kmeans;
      const double vals = std::max(p.p0, 1.0);
      const double flops = 8.0 * vals;  // accumulate + divide per value
      return flops / (m.rate_g * 1e9 * q.speed) / q.place.width +
             1e-6;  // fixed task-dispatch floor
    }
    case CostExpr::Kind::kCallable:
      break;
  }
  DAS_ASSERT(!"cost_expr_eval on a kCallable expression");
  return 0.0;
}

/// Evaluates through the expression when one exists, the callable otherwise
/// — the engines' cost path, which skips the std::function indirection for
/// catalog-built types.
inline double cost_eval(const TaskTypeInfo& info, const TaskParams& p,
                        const CostQuery& q) {
  return info.expr.kind == CostExpr::Kind::kCallable ? info.cost(p, q)
                                                     : cost_expr_eval(info.expr, p, q);
}

/// The functor the kernel factories wrap into CostFn. register_type
/// recognises it via std::function::target<CostExprFn>() and copies the
/// expression into TaskTypeInfo::expr — registration sites need no change
/// to get the inline evaluation.
struct CostExprFn {
  CostExpr expr;
  double operator()(const TaskParams& p, const CostQuery& q) const {
    return cost_expr_eval(expr, p, q);
  }
};

}  // namespace das
