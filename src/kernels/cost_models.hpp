#pragma once
// Analytic per-kernel cost models for the discrete-event engine.
//
// The DES does not execute kernels; it charges each participant of a
// moldable task the busy time this model predicts for its share of the work,
// given the participant core's effective speed and the cluster's bandwidth
// share at that instant (both from SpeedScenario). The models encode the
// three behaviour classes the paper's synthetic DAGs exercise:
//
//   MatMul  — compute-bound: time ~ flops / (rate * speed * cache_fit) where
//             cache_fit depends on whether one tile matrix (8*tile^2 bytes)
//             fits the core's L1, the cluster L2, or spills to DRAM. This
//             reproduces the paper's tile-size narrative (32 fits both L1s,
//             64/80 only the Denver L1, 96 only L2; §5.3).
//   Copy    — memory-bound: a single core reaches only a fraction of the
//             cluster bandwidth; width 2 saturates it (widths beyond that
//             neither help nor hurt). CPU speed matters only under deep DVFS
//             throttling, when issue rate becomes the bottleneck (visible in
//             the paper's Fig. 7(b)).
//   Stencil — cache-bound: compute-like scaling, lower per-width efficiency
//             (participants share the L2), plus an L2-fit factor.
//
// TaskParams conventions per kernel are documented at each factory.
//
// Every factory below returns a tagged CostExpr (core/task_type.hpp): the
// closed form's kind plus the calibration constants it reads. The one
// evaluator, cost_expr_eval in core/cost_expr.hpp, holds the arithmetic;
// both engines and criticality's node weights call it directly.

#include "core/task_type.hpp"

namespace das::kernels {

/// All calibration constants in one place.
struct CostModelConfig {
  // MatMul. 0.9 GFLOP/s reproduces the paper's ~0.6 ms 64x64 tile on the
  // Denver core (32000 tasks at ~3200 tasks/s peak in Fig. 4(a)) — the
  // kernel is a naive triple loop, not a tuned GEMM.
  double matmul_gflops = 0.9;   ///< per-core rate at speed 1.0, L1-resident
  double l1_fit = 1.0;          ///< rate factor when a tile matrix fits L1
  double l2_fit = 0.6;          ///< ... fits the shared L2
  double mem_fit = 0.35;        ///< ... spills to DRAM
  double matmul_alpha = 0.08;   ///< per-extra-participant inefficiency

  // Copy. The issue-rate bound (outstanding misses a core can sustain)
  // scales with effective speed: a full-speed Denver core is just
  // bandwidth-bound (13 > 12 GB/s share), the slower A57s are mildly
  // issue-bound (13 * 0.55 = 7.2 GB/s — Denver copies faster, as on the
  // TX2), a core sharing cycles with a co-runner drops to 7.8 GB/s, and a
  // 345 MHz DVFS-throttled Denver collapses to 2.2 GB/s — the paper's
  // Fig. 7(b) sensitivity.
  double copy_single_core_bw_frac = 0.6;  ///< fraction of cluster BW one core
                                          ///< can pull
  double copy_cpu_gbs_per_speed = 13.0;   ///< issue-rate bound: GB/s at speed 1

  // Stencil (the L2-spill penalty itself is per-cluster: Cluster::stream_fit)
  double stencil_flops_per_point = 2.5;
  double stencil_alpha = 0.18;  ///< L2 sharing penalty per extra participant

  // Moldability is not free: assembling w participants costs wake-up +
  // completion synchronisation. Charged per rank as sync * (w - 1), it makes
  // wide molding of very short tasks (e.g. 64x64 matmul tiles, ~100 us)
  // unattractive while leaving millisecond tasks (copy, k-means chunks)
  // profitable — the behaviour behind the paper's Fig. 5(g)/Fig. 7
  // "conservative widths" discussion.
  double sync_overhead_s = 25e-6;

  // Measurement noise: lognormal sigma = noise0 + noise1 / (T in ms), i.e.
  // a ~2% relative dispersion floor plus a ~25 us absolute timing error per
  // measurement. Tile-32 matmul tasks (~73 us) see sigma ~0.36 while tile-64
  // tasks (~0.6 ms) see ~0.06 — which is exactly what makes the PTT's
  // smoothing ratio matter only for the smallest tile in the paper's Fig. 8.
  double noise0 = 0.02;
  double noise1 = 0.025;
};

/// MatMul: p0 = tile dimension n (task multiplies n x n tiles).
CostExpr matmul_cost(CostModelConfig cfg = {});

/// Copy: p0 = number of doubles moved by the task (read + write charged).
CostExpr copy_cost(CostModelConfig cfg = {});

/// Stencil: p0 = grid dimension n (task sweeps an n x n tile).
CostExpr stencil_cost(CostModelConfig cfg = {});

/// Heat row-band sweep: p0 = grid-equivalent dimension n (n^2 points per
/// task). Unlike the tile stencil above, these are large streaming bands
/// whose per-participant sub-bands fit private caches better as the width
/// grows, so molding scales near-linearly with a small cache-aggregation
/// bonus (the paper's §5.4: "sharing CPU caches can have a significant
/// impact"), making the cost-based searches willing to mold — the mechanism
/// behind RWSM-C's and DAM-C's Fig. 10 edge.
CostExpr heat_compute_cost(CostModelConfig cfg = {});

/// Fixed-duration task (e.g. a barrier-ish helper); p0 ignored.
CostExpr fixed_cost(double seconds);

/// Pure compute of `seconds` at speed 1: time = seconds / speed, whatever
/// the width or params (a busy-work grain that slows with its core).
CostExpr work_cost(double seconds);

/// Communication task: time = latency + p0 bytes / bandwidth, scaled by
/// nothing else (message passing is single-core by nature; the paper's Heat
/// still benefits from molding because sharing caches speeds the copies —
/// modelled as a mild width discount on the local packing portion).
CostExpr comm_cost(double latency_s, double bw_gbs);

/// K-means assignment chunk: p0 = points, p1 = dims, p2 = k.
CostExpr kmeans_map_cost(double flops_rate_g = 3.0);
/// K-means reduction: p0 = k * dims accumulated values.
CostExpr kmeans_reduce_cost(double flops_rate_g = 3.0);

}  // namespace das::kernels
