#pragma once
// Task types and metadata.
//
// A *task type* corresponds to "each function implemented as a task" (paper
// §4.1.1): the unit of performance-model granularity — one PTT is maintained
// per type. A type carries
//   - a name,
//   - an analytic cost model used by the discrete-event engine
//     (src/kernels/cost_models.cpp defines the paper kernels' models),
//   - noise coefficients describing measurement dispersion (short tasks are
//     noisier; drives the paper's Fig. 8 sensitivity study).
// The *real* implementation of a task is per-DAG-node (a callable capturing
// its buffers), so the registry stays engine-agnostic.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "platform/topology.hpp"

namespace das {

using TaskTypeId = std::int32_t;
inline constexpr TaskTypeId kInvalidTaskType = -1;

enum class Priority : std::uint8_t { kLow = 0, kHigh = 1 };

/// Small POD of kernel-interpreted parameters consumed by cost models
/// (e.g. tile size for MatMul, bytes for Copy). The real-engine payload
/// lives in the node's work closure instead.
struct TaskParams {
  double p0 = 0.0;
  double p1 = 0.0;
  double p2 = 0.0;
};

/// Everything a cost model may depend on for ONE participant of a moldable
/// task: its place, its rank's core, the core's effective speed and the
/// cluster's bandwidth share at the participant's start time.
struct CostQuery {
  ExecutionPlace place;
  int rank = 0;
  int core = 0;
  double speed = 1.0;     ///< absolute effective speed (SpeedScenario::speed)
  double bw_share = 1.0;  ///< cluster bandwidth fraction available
  const Cluster* cluster = nullptr;
};

/// A task type's analytic cost model: a tagged closed form whose payload
/// holds the factory's calibration constants (src/kernels/cost_models.cpp).
/// core/cost_expr.hpp evaluates it to the seconds of busy time of one
/// queried participant. kNone means "no model": the DES refuses such a type
/// and the rt runtime runs it only through node closures.
struct CostExpr {
  enum class Kind : std::uint8_t {
    kNone = 0,      ///< no cost model
    kMatMul,        ///< compute-bound tile kernel with cache-fit factor
    kCopy,          ///< bandwidth-bound, min(share, issue-rate) limited
    kStencil,       ///< cache-bound tile sweep with L2 stream-fit
    kHeatBand,      ///< streaming row band with cache-aggregation bonus
    kFixed,         ///< constant seconds
    kWork,          ///< Fixed payload's seconds / queried speed
    kComm,          ///< latency + bytes/bandwidth wire model
    kKmeansMap,     ///< flops-rate assignment chunk
    kKmeansReduce,  ///< flops-rate reduction with dispatch floor
  };
  struct MatMul {
    double gflops, l1_fit, l2_fit, mem_fit, alpha, sync_s;
  };
  struct Copy {
    double single_core_bw_frac, cpu_gbs_per_speed;
  };
  struct Stencil {
    double gflops, flops_per_point, alpha, sync_s;
  };
  struct HeatBand {
    double gflops, flops_per_point;
  };
  struct Fixed {
    double seconds;
  };
  struct Comm {
    double latency_s, bw_gbs;
  };
  struct Kmeans {
    double rate_g;
  };
  union Payload {
    MatMul matmul;
    Copy copy;
    Stencil stencil;
    HeatBand heat;
    Fixed fixed;
    Comm comm;
    Kmeans kmeans;
    constexpr Payload() : fixed{0.0} {}
  };
  Kind kind = Kind::kNone;
  Payload u{};
};

struct TaskTypeInfo {
  std::string name;
  CostExpr cost{};      ///< kNone => DES refuses to run this type
  double noise0 = 0.0;  ///< lognormal sigma floor (relative dispersion)
  /// Absolute measurement error in "sigma x ms" units: a timestamp /
  /// preemption error of ~noise1 milliseconds per measurement, so the
  /// RELATIVE sigma of a task of duration T is noise1 / T. Sub-100 us tasks
  /// become very noisy (the paper's Fig. 8 tile-32 regime) while
  /// millisecond tasks measure cleanly.
  double noise1 = 0.0;
};

/// Registry of task types. Registration happens during setup (single
/// threaded); lookups afterwards are read-only and thread-safe.
class TaskTypeRegistry {
 public:
  TaskTypeId register_type(TaskTypeInfo info);
  TaskTypeId register_type(std::string name, CostExpr cost = {}) {
    return register_type(TaskTypeInfo{std::move(name), cost, 0.0, 0.0});
  }

  const TaskTypeInfo& info(TaskTypeId id) const;
  /// kInvalidTaskType if no type has this name.
  TaskTypeId find(const std::string& name) const;
  int size() const { return static_cast<int>(types_.size()); }

  /// Lognormal sigma for a measurement of a task of type `t` whose
  /// noise-free duration is `cost_s` seconds. Takes the resolved info: the
  /// per-participant hot path caches it once per task.
  static double noise_sigma_of(const TaskTypeInfo& t, double cost_s);

 private:
  std::vector<TaskTypeInfo> types_;
};

inline double TaskTypeRegistry::noise_sigma_of(const TaskTypeInfo& t,
                                               double cost_s) {
  if (t.noise0 <= 0.0 && t.noise1 <= 0.0) return 0.0;
  const double ms = std::max(cost_s * 1e3, 1e-3);
  // Cap the relative dispersion: even a microsecond task's measurement is
  // bounded by scheduler quanta, not unbounded lognormal tails (an uncapped
  // 1/T blows up for the sub-10us bookkeeping tasks).
  return std::min(t.noise0 + t.noise1 / ms, 0.75);
}

}  // namespace das
