// Golden-value determinism pin for the discrete-event engine.
//
// The simulator's contract is that a virtual makespan is a pure function of
// (seed, scenario, policy, DAG, topology) — bit for bit, not approximately.
// Every hot-path optimization (idle-core sets, victim bitmaps, slot-indexed
// jobs, ring-buffer queues, CSR fan-out) must preserve the event and RNG
// streams exactly; this test records the makespan of every catalog scenario
// x all eight policies x two seeds as a hexfloat golden and fails loudly on
// any perturbation.
//
// If a change INTENTIONALLY alters the event stream (a new scheduling
// feature, a semantic fix), regenerate the table:
//   DAS_PRINT_GOLDENS=1 ./sim_determinism_test
// and paste the printed initializer over kGoldens below — after convincing
// yourself the perturbation is intended, because every figure the repo
// reproduces moves with it.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "kernels/registry.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "workloads/synthetic_dag.hpp"

namespace das {
namespace {

constexpr std::uint64_t kSeeds[] = {42, 2020};
const Policy kPolicies[] = {Policy::kRws,  Policy::kRwsmC, Policy::kFa,
                            Policy::kFamC, Policy::kDa,    Policy::kDamC,
                            Policy::kDamP, Policy::kDheft};

/// One pinned cell: catalog scenario x policy x seed -> hexfloat makespan.
struct Golden {
  const char* scenario;
  const char* policy;
  std::uint64_t seed;
  const char* makespan_hex;
};

// Generated with DAS_PRINT_GOLDENS=1 (see the header comment).
const Golden kGoldens[] = {
    {"clean", "RWS", 42, "0x1.1072b10c38e2dp+2"},
    {"clean", "RWS", 2020, "0x1.13e7dba0f81fep+2"},
    {"clean", "RWSM-C", 42, "0x1.0e46a973c7be2p+2"},
    {"clean", "RWSM-C", 2020, "0x1.0f96b1767326bp+2"},
    {"clean", "FA", 42, "0x1.6977fbce58c2p+1"},
    {"clean", "FA", 2020, "0x1.69456c8d73ea5p+1"},
    {"clean", "FAM-C", 42, "0x1.69a35b353505fp+1"},
    {"clean", "FAM-C", 2020, "0x1.69a3bc0995a66p+1"},
    {"clean", "DA", 42, "0x1.69ae425a36283p+1"},
    {"clean", "DA", 2020, "0x1.69b05c86a09a4p+1"},
    {"clean", "DAM-C", 42, "0x1.6a2ba81b04e5bp+1"},
    {"clean", "DAM-C", 2020, "0x1.69c080b9d2cb7p+1"},
    {"clean", "DAM-P", 42, "0x1.7481b857dd6eep+1"},
    {"clean", "DAM-P", 2020, "0x1.746d0d15d16ep+1"},
    {"clean", "dHEFT", 42, "0x1.94131fa585301p+1"},
    {"clean", "dHEFT", 2020, "0x1.93efcef73cd59p+1"},
    {"dvfs-wave", "RWS", 42, "0x1.446852513715cp+2"},
    {"dvfs-wave", "RWS", 2020, "0x1.4284ad6498e2ap+2"},
    {"dvfs-wave", "RWSM-C", 42, "0x1.43a9457cb8bbcp+2"},
    {"dvfs-wave", "RWSM-C", 2020, "0x1.43340afc2f0bfp+2"},
    {"dvfs-wave", "FA", 42, "0x1.928c403522738p+1"},
    {"dvfs-wave", "FA", 2020, "0x1.9243cc6564d7fp+1"},
    {"dvfs-wave", "FAM-C", 42, "0x1.930123e05e15dp+1"},
    {"dvfs-wave", "FAM-C", 2020, "0x1.92ed043d46262p+1"},
    {"dvfs-wave", "DA", 42, "0x1.92f70ead015b5p+1"},
    {"dvfs-wave", "DA", 2020, "0x1.930b95e05479cp+1"},
    {"dvfs-wave", "DAM-C", 42, "0x1.93c55e3abcf2p+1"},
    {"dvfs-wave", "DAM-C", 2020, "0x1.935ca8548bee9p+1"},
    {"dvfs-wave", "DAM-P", 42, "0x1.a8c8bacfe6817p+1"},
    {"dvfs-wave", "DAM-P", 2020, "0x1.a88e9e00584adp+1"},
    {"dvfs-wave", "dHEFT", 42, "0x1.e696098c8b3fbp+1"},
    {"dvfs-wave", "dHEFT", 2020, "0x1.e5208063cf244p+1"},
    {"interference-burst", "RWS", 42, "0x1.10df85b9a190ap+2"},
    {"interference-burst", "RWS", 2020, "0x1.1059a4977f97ep+2"},
    {"interference-burst", "RWSM-C", 42, "0x1.118135b3b6a62p+2"},
    {"interference-burst", "RWSM-C", 2020, "0x1.10c58a9bd61e1p+2"},
    {"interference-burst", "FA", 42, "0x1.8fbe8e4fc328bp+1"},
    {"interference-burst", "FA", 2020, "0x1.8fe9204ad7edp+1"},
    {"interference-burst", "FAM-C", 42, "0x1.8fe7489265e9cp+1"},
    {"interference-burst", "FAM-C", 2020, "0x1.8fd619a50bb4dp+1"},
    {"interference-burst", "DA", 42, "0x1.901e3db81c25ap+1"},
    {"interference-burst", "DA", 2020, "0x1.8ff5c40ad591cp+1"},
    {"interference-burst", "DAM-C", 42, "0x1.907c001e5be36p+1"},
    {"interference-burst", "DAM-C", 2020, "0x1.901df7c1652bfp+1"},
    {"interference-burst", "DAM-P", 42, "0x1.94825660761a2p+1"},
    {"interference-burst", "DAM-P", 2020, "0x1.947eed179685ep+1"},
    {"interference-burst", "dHEFT", 42, "0x1.e623483201037p+1"},
    {"interference-burst", "dHEFT", 2020, "0x1.e2890c38286dp+1"},
    {"ramp-down", "RWS", 42, "0x1.1072b10c38e2dp+2"},
    {"ramp-down", "RWS", 2020, "0x1.13e7dba0f81fep+2"},
    {"ramp-down", "RWSM-C", 42, "0x1.0e46a973c7be2p+2"},
    {"ramp-down", "RWSM-C", 2020, "0x1.0f96b1767326bp+2"},
    {"ramp-down", "FA", 42, "0x1.6977fbce58c2p+1"},
    {"ramp-down", "FA", 2020, "0x1.69456c8d73ea5p+1"},
    {"ramp-down", "FAM-C", 42, "0x1.69a35b353505fp+1"},
    {"ramp-down", "FAM-C", 2020, "0x1.69a3bc0995a66p+1"},
    {"ramp-down", "DA", 42, "0x1.69ae425a36283p+1"},
    {"ramp-down", "DA", 2020, "0x1.69b05c86a09a4p+1"},
    {"ramp-down", "DAM-C", 42, "0x1.6a2ba81b04e5bp+1"},
    {"ramp-down", "DAM-C", 2020, "0x1.69c080b9d2cb7p+1"},
    {"ramp-down", "DAM-P", 42, "0x1.7481b857dd6eep+1"},
    {"ramp-down", "DAM-P", 2020, "0x1.746d0d15d16ep+1"},
    {"ramp-down", "dHEFT", 42, "0x1.94131fa585301p+1"},
    {"ramp-down", "dHEFT", 2020, "0x1.93efcef73cd59p+1"},
    {"random-churn", "RWS", 42, "0x1.13457354cf543p+2"},
    {"random-churn", "RWS", 2020, "0x1.127d3fd2b8d41p+2"},
    {"random-churn", "RWSM-C", 42, "0x1.12883b4dd57dfp+2"},
    {"random-churn", "RWSM-C", 2020, "0x1.113ebc4de828ep+2"},
    {"random-churn", "FA", 42, "0x1.6a65f6280509cp+1"},
    {"random-churn", "FA", 2020, "0x1.6a358b2630e35p+1"},
    {"random-churn", "FAM-C", 42, "0x1.6ab218ba3db49p+1"},
    {"random-churn", "FAM-C", 2020, "0x1.6a8f25fe5aa1ep+1"},
    {"random-churn", "DA", 42, "0x1.6a835160b7996p+1"},
    {"random-churn", "DA", 2020, "0x1.6a9eb7a9f455ep+1"},
    {"random-churn", "DAM-C", 42, "0x1.6b18701015079p+1"},
    {"random-churn", "DAM-C", 2020, "0x1.6aa8e076fff9fp+1"},
    {"random-churn", "DAM-P", 42, "0x1.75bd48e7bad62p+1"},
    {"random-churn", "DAM-P", 2020, "0x1.75c2c507976e4p+1"},
    {"random-churn", "dHEFT", 42, "0x1.992e0f9f10737p+1"},
    {"random-churn", "dHEFT", 2020, "0x1.99cc883b17f65p+1"},
    {"phase-flip", "RWS", 42, "0x1.bf2ca58f7e232p+2"},
    {"phase-flip", "RWS", 2020, "0x1.bdead2c2bdf9ep+2"},
    {"phase-flip", "RWSM-C", 42, "0x1.c01b3f59f06d2p+2"},
    {"phase-flip", "RWSM-C", 2020, "0x1.bbf1aee2b9dc5p+2"},
    {"phase-flip", "FA", 42, "0x1.ec6a990af1a7ap+1"},
    {"phase-flip", "FA", 2020, "0x1.ec5e5b9a81c39p+1"},
    {"phase-flip", "FAM-C", 42, "0x1.ec76fddf7af9ep+1"},
    {"phase-flip", "FAM-C", 2020, "0x1.ec186ed68fb41p+1"},
    {"phase-flip", "DA", 42, "0x1.ed0fe30a0369fp+1"},
    {"phase-flip", "DA", 2020, "0x1.ed54978da9dc4p+1"},
    {"phase-flip", "DAM-C", 42, "0x1.ede1d61910718p+1"},
    {"phase-flip", "DAM-C", 2020, "0x1.ee2968e8ebe5dp+1"},
    {"phase-flip", "DAM-P", 42, "0x1.fc45a0c302fbbp+1"},
    {"phase-flip", "DAM-P", 2020, "0x1.fcbc1d80c51fdp+1"},
    {"phase-flip", "dHEFT", 42, "0x1.2c3c32b3061cp+2"},
    {"phase-flip", "dHEFT", 2020, "0x1.2bfee1b240344p+2"},
    {"fail-stop", "RWS", 42, "0x1.0e0c51b497b16p+2"},
    {"fail-stop", "RWS", 2020, "0x1.0b5701905289ep+2"},
    {"fail-stop", "RWSM-C", 42, "0x1.0b99908feddb6p+2"},
    {"fail-stop", "RWSM-C", 2020, "0x1.0b5c02f1f406fp+2"},
    {"fail-stop", "FA", 42, "0x1.a372d02e691e6p+1"},
    {"fail-stop", "FA", 2020, "0x1.a388198546f7bp+1"},
    {"fail-stop", "FAM-C", 42, "0x1.a36df1a01ab5cp+1"},
    {"fail-stop", "FAM-C", 2020, "0x1.a3abe23d19b5bp+1"},
    {"fail-stop", "DA", 42, "0x1.a3a9631342348p+1"},
    {"fail-stop", "DA", 2020, "0x1.a3aa6d6d93acfp+1"},
    {"fail-stop", "DAM-C", 42, "0x1.a44383998ae8ap+1"},
    {"fail-stop", "DAM-C", 2020, "0x1.a3b3779c8f358p+1"},
    {"fail-stop", "DAM-P", 42, "0x1.b1545c2a1bc8ap+1"},
    {"fail-stop", "DAM-P", 2020, "0x1.b13f1d0c71b48p+1"},
    {"fail-stop", "dHEFT", 42, "0x1.cc9f094c067ebp+1"},
    {"fail-stop", "dHEFT", 2020, "0x1.cd7fcc9585fbep+1"},
    {"straggler-tail", "RWS", 42, "0x1.618dfadab2d47p+2"},
    {"straggler-tail", "RWS", 2020, "0x1.684e00b427846p+2"},
    {"straggler-tail", "RWSM-C", 42, "0x1.6f7e1c0bf7ea7p+2"},
    {"straggler-tail", "RWSM-C", 2020, "0x1.62d6bfd9654dbp+2"},
    {"straggler-tail", "FA", 42, "0x1.a1d7efd5a2f9cp+1"},
    {"straggler-tail", "FA", 2020, "0x1.a16cd788fa664p+1"},
    {"straggler-tail", "FAM-C", 42, "0x1.a28989d42975p+1"},
    {"straggler-tail", "FAM-C", 2020, "0x1.a2103087ece8fp+1"},
    {"straggler-tail", "DA", 42, "0x1.a27f13360328ap+1"},
    {"straggler-tail", "DA", 2020, "0x1.a2f10ed072a0dp+1"},
    {"straggler-tail", "DAM-C", 42, "0x1.a2e6f99af88f8p+1"},
    {"straggler-tail", "DAM-C", 2020, "0x1.a33f4117d941bp+1"},
    {"straggler-tail", "DAM-P", 42, "0x1.af54c4005b02ep+1"},
    {"straggler-tail", "DAM-P", 2020, "0x1.afecee7bd9c46p+1"},
    {"straggler-tail", "dHEFT", 42, "0x1.d92c0303a3cc2p+1"},
    {"straggler-tail", "dHEFT", 2020, "0x1.d97377c02d165p+1"},
};

// Per-job makespans of the fixed 4-job DAM-C stream below, ";"-joined.
const char kStreamGolden[] =
    "0x1.07871df1b9113p-2;0x1.0345a3021606fp-2;0x1.e365a76725b9bp-3;0x1.fffe073662962p-3;";

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double run_cell(const std::string& scenario_name, Policy policy,
                std::uint64_t seed) {
  const Topology topo = Topology::tx2();
  TaskTypeRegistry registry;
  const kernels::PaperKernelIds ids = kernels::register_paper_kernels(registry);
  const scenario::ScenarioSpec spec = *scenario::find_catalog(scenario_name);
  const SpeedScenario sc = scenario::build(spec, topo);
  // Passed for EVERY cell: an empty plan must leave the historical goldens
  // byte-for-byte unchanged, and the fail-stop entry pins the reclaim /
  // re-release machinery bitwise (re-executions included).
  const FaultPlan faults = scenario::resolve_faults(spec, topo);

  sim::SimOptions opts;
  opts.seed = seed;
  sim::SimEngine eng(topo, policy, registry, opts, &sc, &faults);
  // 16000 matmul tasks, one high-priority critical task per layer: exercises
  // the inbox (steal-exempt) path, WSQ pushes and steals, and — under the
  // moldable policies — wide assembly places. The makespan (~4 virtual
  // seconds) deliberately crosses the catalog's dynamics (interference
  // bursts from t=1 s, the 5 s DVFS wave's half-period flip, the ramps), so
  // the time-varying speed surface feeds the cost model and the scenarios
  // pin DIFFERENT goldens — a run that never leaves the clean region would
  // let a scenario-sampling regression through.
  const Dag dag = workloads::make_synthetic_dag(
      workloads::paper_matmul_spec(ids.matmul, 6, 0.5));
  return eng.run(dag);
}

TEST(SimDeterminism, GoldenMakespansAcrossCatalogPoliciesAndSeeds) {
  const bool print = std::getenv("DAS_PRINT_GOLDENS") != nullptr;
  std::vector<Golden> measured;
  std::vector<std::string> hexes;  // stable storage for measured.makespan_hex
  hexes.reserve(std::size(kSeeds) * std::size(kPolicies) *
                scenario::catalog_names().size());

  for (const std::string& sc : scenario::catalog_names()) {
    for (const Policy p : kPolicies) {
      for (const std::uint64_t seed : kSeeds) {
        const double m = run_cell(sc, p, seed);
        hexes.push_back(hex(m));
        measured.push_back(
            Golden{sc.c_str(), policy_name(p), seed, hexes.back().c_str()});
        if (print)
          std::printf("    {\"%s\", \"%s\", %llu, \"%s\"},\n", sc.c_str(),
                      policy_name(p), static_cast<unsigned long long>(seed),
                      hexes.back().c_str());
      }
    }
  }
  if (print) GTEST_SKIP() << "golden table printed, comparison skipped";

  ASSERT_EQ(measured.size(), std::size(kGoldens))
      << "catalog/policy/seed grid changed — regenerate the golden table";
  for (std::size_t i = 0; i < measured.size(); ++i) {
    EXPECT_STREQ(measured[i].makespan_hex, kGoldens[i].makespan_hex)
        << "scenario=" << kGoldens[i].scenario
        << " policy=" << kGoldens[i].policy << " seed=" << kGoldens[i].seed
        << ": the virtual-time event or RNG stream was perturbed";
  }
}

// A fixed multi-job submission trace must replay bitwise too: the job-slot
// table and queue rework touch the interleave machinery, not just the
// single-DAG path.
TEST(SimDeterminism, GoldenMakespanForInterleavedJobStream) {
  const Topology topo = Topology::tx2();
  TaskTypeRegistry registry;
  const kernels::PaperKernelIds ids = kernels::register_paper_kernels(registry);

  auto run_stream = [&] {
    sim::SimOptions opts;
    opts.seed = 42;
    sim::SimEngine eng(topo, Policy::kDamC, registry, opts);
    const Dag dag = workloads::make_synthetic_dag(
        workloads::paper_copy_spec(ids.copy, 4, 0.02));
    std::vector<JobId> jobs;
    for (int j = 0; j < 4; ++j)
      jobs.push_back(eng.submit(dag, 0.003 * j));
    std::string out;
    for (const JobId id : jobs) out += hex(eng.wait(id)) + ";";
    return out;
  };

  const std::string first = run_stream();
  EXPECT_EQ(first, run_stream()) << "same trace, same seed, different result";
  if (std::getenv("DAS_PRINT_GOLDENS") != nullptr) {
    std::printf("stream golden: %s\n", first.c_str());
    GTEST_SKIP();
  }
  EXPECT_EQ(first, kStreamGolden)
      << "the multi-job interleave path was perturbed";
}

}  // namespace
}  // namespace das
