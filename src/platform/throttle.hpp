#pragma once
// Core-speed emulation for the real-thread engine.
//
// The container this library builds in has homogeneous cores, so the TX2's
// fixed asymmetry and the paper's interference/DVFS scenarios are *emulated*:
// after a worker performs real kernel work that took `dt` at native speed, it
// busy-waits an additional dt * (1/rel_speed - 1), making the participation
// take dt / rel_speed of wall time — exactly what a core running at
// rel_speed of the fastest class would exhibit. Busy-waiting (instead of
// sleeping) is deliberate: a genuinely slow core stays occupied, and so must
// its emulation, otherwise the OS would backfill the idle time and distort
// co-scheduling behaviour.
//
// The scheduler under test observes nothing but inflated task execution
// times, which is the same signal real dynamic asymmetry produces: a
// scheduler cannot tell the emulated slowdown from a real one.
//
// The rt worker applies it in Runtime::run_work (rt/worker.cpp): it samples
// relative_speed() at the start of the participation and busy-waits
// deficit_ns() after the work. Sampling once per participation is enough:
// the scenarios of interest (DVFS period 10 s, interference windows of
// seconds) change slowly relative to millisecond tasks.

#include <cstdint>

#include "platform/speed_model.hpp"
#include "util/time.hpp"

namespace das {

class SpeedEmulator {
 public:
  /// `scenario` may outlive calls; `epoch_ns` anchors scenario time 0.
  SpeedEmulator(const SpeedScenario& scenario, std::int64_t epoch_ns)
      : scenario_(&scenario), epoch_ns_(epoch_ns) {}

  /// Scenario time (seconds) of an absolute timestamp.
  double scenario_time(std::int64_t t_ns) const {
    return ns_to_s(t_ns - epoch_ns_);
  }

  /// Relative speed of `core` at absolute time `t_ns`.
  double relative_speed(int core, std::int64_t t_ns) const {
    return scenario_->relative_speed(core, scenario_time(t_ns));
  }

  /// Extra wall-time a core at relative speed `rel` owes after `work_ns` of
  /// native-speed work.
  static std::int64_t deficit_ns(std::int64_t work_ns, double rel_speed) {
    if (rel_speed >= 1.0 || work_ns <= 0) return 0;
    return static_cast<std::int64_t>(static_cast<double>(work_ns) *
                                     (1.0 / rel_speed - 1.0));
  }

 private:
  const SpeedScenario* scenario_;
  std::int64_t epoch_ns_;
};

}  // namespace das
