#pragma once
// The four benchmark workloads (perfbench/README.md describes each, its
// thread budget and which layers it stresses). Each one
//   1. sets up `kSetupReps` times, sampling "setup_s" (DAG build plus
//      executor / world / session construction, up to the first submit);
//   2. runs measured passes for Options::seconds — in a traced run every
//      second pass is traced (its samples carry the "traced." prefix) —
//      setting up once more after every pass, so that set-up is sampled
//      across the whole run;
//   3. runs its output checks and records everything into `raw`.

#include "harness.hpp"

namespace perfbench {

inline constexpr int kSetupReps = 3;

void run_paper_sim(const Options& opt, Raw& raw);
void run_halo_sim(const Options& opt, Raw& raw);
void run_service_net(const Options& opt, Raw& raw);
void run_rt_fine(const Options& opt, Raw& raw);

/// Name prefix for samples of the measured phase: "" while tracing is off,
/// "traced." while it is on (the traced passes of a traced run).
inline std::string phase_prefix() {
  return Tracer::instance().enabled() ? "traced." : "";
}

/// Rate samples an untraced run must take: throughput is reported as the
/// nearest-rank 90th percentile of per-pass rates, printed only with 10
/// samples beyond it.
inline constexpr int kMinRateSamples = 100;
/// Untraced + traced pass pairs a traced run must take for
/// bench.trace_overhead_frac.
inline constexpr int kMinTracePairs = 10;

/// Records throughput as the 90th percentile of the per-pass "tasks_per_s"
/// samples. On a shared host other tenants' load slows whole stretches of a
/// run; the fastest decile of passes is what the code itself sustains, and
/// moves far less between runs than the median.
inline void report_rate_p90(Raw& raw) {
  raw.percentiles("tasks_per_s", {{90, "tasks_per_s"}});
}

/// The measured phase: `pass()` back to back for opt.seconds. An untraced
/// run takes at least `min_passes` passes. A traced run alternates untraced
/// and traced passes, so each traced pass sees the same host load as the
/// untraced one before it; the pairs give bench.trace_overhead_frac (a
/// traced run reports no throughput, so it needs few of them). Tracing is
/// on again after the phase in a traced run.
template <typename Pass>
void measured_phase(const Options& opt, int min_passes, Pass&& pass) {
  Tracer& t = Tracer::instance();
  bool traced = false;
  measure(opt.seconds, opt.trace ? 2 * kMinTracePairs : min_passes, [&] {
    t.set_enabled(traced);
    {
      Span span("bench.measure");
      pass();
    }
    t.set_enabled(false);
    traced = opt.trace && !traced;
  });
  t.set_enabled(opt.trace);  // the probes after the phase are traced
}

}  // namespace perfbench
