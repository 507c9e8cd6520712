#include "sim/network.hpp"

#include "util/assert.hpp"

namespace das::sim {

double NetworkModel::delay(double bytes) const {
  DAS_CHECK(latency_s >= 0.0 && bw_gbs > 0.0);
  DAS_CHECK(bytes >= 0.0);
  return latency_s + bytes / (bw_gbs * 1e9);
}

}  // namespace das::sim
