// perfbench: runs one benchmark workload and prints its raw measurements as
// one line of JSON on stdout. perfbench/run.py builds this program, runs it
// and reduces the line to the reported metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// With --trace 1 the spans recorded around library calls are written once,
// at exit, to PATH as a Chrome trace.

#include <sched.h>

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Raw;

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload paper-sim|halo-sim|service-net|"
               "rt-fine --seed N --seconds S --trace 0|1 [--trace-out PATH]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using Workload = void (*)(const Options&, Raw&);
  const std::map<std::string, Workload> workloads = {
      {"paper-sim", perfbench::run_paper_sim},
      {"halo-sim", perfbench::run_halo_sim},
      {"service-net", perfbench::run_service_net},
      {"rt-fine", perfbench::run_rt_fine},
  };

  Options opt;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") opt.workload = val;
      else if (key == "--seed") opt.seed = std::stoull(val);
      else if (key == "--seconds") opt.seconds = std::stod(val);
      else if (key == "--trace") opt.trace = std::stoi(val) != 0;
      else if (key == "--trace-out") trace_out = val;
      else usage("unknown flag " + key);
    } catch (const std::logic_error&) {
      usage("bad value '" + val + "' for " + key);
    }
  }
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) usage("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (opt.trace && trace_out.empty()) usage("--trace 1 needs --trace-out");
  opt.nproc = online_cpus();

  Raw raw;
  raw.info("workload", opt.workload);
  raw.info("seed", std::to_string(opt.seed));
  raw.info("nproc", std::to_string(opt.nproc));
  raw.info("cpu_model", cpu_model());
  raw.info("compiler", __VERSION__);
  raw.info("build_type", PERFBENCH_BUILD_TYPE);

  perfbench::Tracer::instance().set_enabled(opt.trace);
  try {
    it->second(opt, raw);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " threw: " << e.what() << "\n";
    return 1;
  }
  perfbench::Tracer::instance().set_enabled(false);
  raw.value("peak_rss_mb", "MB", perfbench::peak_rss_mb());
  if (opt.trace) {
    const bool written = perfbench::Tracer::instance().write_chrome(trace_out);
    if (!written) {
      std::cerr << "perfbench: cannot write " << trace_out << "\n";
      return 1;
    }
  }
  std::cout << raw.dump() << std::endl;
  return 0;
}
