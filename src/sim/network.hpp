#pragma once
// Network model for cross-rank DAG edges in the discrete-event engine.
//
// The DES represents an in-flight message as a delayed dependency edge
// (DagEdge::delay_s); this model centralises how that delay is derived from
// message size — the classic latency + size/bandwidth (alpha-beta) model,
// adequate for the point-to-point ghost exchanges of the Heat benchmark.

#include <cstddef>

namespace das::sim {

struct NetworkModel {
  double latency_s = 30e-6;  ///< per-message wire latency (alpha)
  double bw_gbs = 5.0;       ///< effective link bandwidth (1/beta)

  /// Wire time of a `bytes`-sized message.
  double delay(double bytes) const;
};

}  // namespace das::sim
