#pragma once
// Shared plumbing for the figure-reproduction benches: a registered kernel
// set, scenario resolution, the command-line flags, a one-call
// structured-throughput runner routed through the das::Executor facade, the
// structured result reporter behind --json= (the canonical,
// machine-readable bench output; the stdout tables are for humans) and the
// baseline gate of the CI sentinel benches.
// Every bench is deterministic from kFigureSeed on the sim backend.
//
// Common flags (parsed by Bench(argc, argv, name); a bench can leave some
// out, see BenchFlags):
//   --backend=sim|rt     engine selection (default: sim — the figures are
//                        regenerated in deterministic virtual time)
//   --policy=NAME[,..]   restrict to a subset of the Table-1 schedulers
//                        (e.g. --policy=RWS,DAM-C); default: the bench's set
//   --scenario=N|FILE    override the bench's built-in platform condition
//                        with a catalog scenario (clean, dvfs-wave,
//                        interference-burst, ramp-down, random-churn,
//                        phase-flip) or a JSON spec file (src/scenario)
//   --json=PATH          write every run as a structured JSON record to
//                        PATH (bare --json defaults to BENCH_<name>.json)
//   --scale=F            workload scale factor in (0, 1]; defaults to 1.0 on
//                        sim and 0.02 on rt (real-thread runs execute real
//                        busy-work — full paper scale takes minutes)
//   --seed=N             RNG seed (default: kFigureSeed = 2020)
// The sentinel benches also take the baseline gate's flags (Gate).

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/executor.hpp"
#include "kernels/registry.hpp"
#include "platform/speed_model.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "workloads/synthetic_dag.hpp"

namespace das::bench {

inline constexpr std::uint64_t kFigureSeed = 2020;  // ICPP'20
inline constexpr double kRtDefaultScale = 0.02;
/// Schema v2 = v1 (unchanged fields) + optional per-run job-stream data:
/// "jobs", "latency_s" percentiles, "arrival" metadata, "per_job" records
/// — each carrying the owning "tenant" ("" for bare submits) — and, for
/// multi-tenant streams, per-tenant percentiles plus a "fairness" object
/// (see report_job_stream, bench/job_stream.cpp and README "JSON result
/// schema").
inline constexpr int kResultSchemaVersion = 2;

/// per_job record cap: a 100k-job acceptance sweep must not write a
/// multi-hundred-MB JSON file. Capped streams set "per_job_capped": true;
/// the aggregate percentiles always cover every job.
inline constexpr std::size_t kMaxPerJobRecords = 50000;

/// Latency percentile over `values` (q in [0,1], nearest-rank method).
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t idx = std::min(
      n - 1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))) -
                 (q > 0.0 ? 1 : 0));
  return values[idx];
}

/// Converts one rank's stats snapshot into the JSON record shape documented
/// in README.md ("JSON result schema").
inline json::Value snapshot_to_json(const StatsSnapshot& s) {
  json::Value rank = json::Value::object();
  rank.set("tasks_total", s.tasks_total);
  rank.set("tasks_high", s.tasks_high);
  rank.set("tasks_low", s.tasks_low);
  rank.set("elapsed_s", s.elapsed_s);
  rank.set("total_busy_s", s.total_busy_s);
  json::Value busy = json::Value::array();
  for (double b : s.busy_s) busy.push_back(b);
  rank.set("busy_s", std::move(busy));
  json::Value dist = json::Value::array();
  for (const auto& [place, share] : s.high_distribution) {
    json::Value d = json::Value::object();
    d.set("place", to_string(place));
    d.set("share", share);
    dist.push_back(std::move(d));
  }
  rank.set("high_distribution", std::move(dist));
  return rank;
}

// --- flag values -------------------------------------------------------------

/// The key of a "--key=value" or "--key" token.
inline std::string flag_key(const std::string& token) {
  return token.substr(2, std::min(token.find('='), token.size()) - 2);
}

/// `s` as one whole number (std::stoll / std::stod rules, nothing left
/// over); nullopt otherwise.
template <typename T>
std::optional<T> to_number(const std::string& s) {
  try {
    std::size_t pos = 0;
    const T v = std::is_integral_v<T> ? static_cast<T>(std::stoll(s, &pos))
                                      : static_cast<T>(std::stod(s, &pos));
    if (pos == s.size()) return v;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

/// A positive integer token that fits an int (swept sizes become int DAG
/// sizes and core counts).
inline std::optional<std::int64_t> positive_int(const std::string& s) {
  const auto v = to_number<std::int64_t>(s);
  if (v && *v >= 1 && *v <= std::numeric_limits<int>::max()) return v;
  return std::nullopt;
}

/// --key=N, at least `min`; `def` when absent. A smaller value exits 2;
/// `note` (what 0 means, say) ends the message.
inline std::int64_t int_flag(const cli::Flags& flags, const std::string& key,
                             std::int64_t def, std::int64_t min,
                             const std::string& note = "") {
  const std::int64_t v = flags.get_int(key, def);
  if (v < min)
    cli::die("--" + key + " must be >= " + std::to_string(min) + note);
  return v;
}

/// --key=A,B,...: `parse` maps each comma-separated token to its value, or
/// to nullopt when the token is not one. `def` stands in for an absent
/// flag; absent without a default is the empty list. A bad token exits 2
/// naming the flag, the token and `what` the flag takes.
template <typename Parse>
auto list_flag(const cli::Flags& flags, const std::string& key,
               const std::string& def, const std::string& what, Parse parse) {
  std::vector<typename decltype(parse(std::string()))::value_type> out;
  if (!flags.has(key) && def.empty()) return out;
  for (const std::string& token : cli::split(flags.get(key, def), ',')) {
    const auto v = parse(token);
    if (!v)
      cli::die("--" + key + " expects a comma-separated list of " + what +
               ", got '" + token + "'");
    out.push_back(*v);
  }
  return out;
}

/// --key=N[,N...] of positive int-range integers; `def` as in list_flag.
inline std::vector<std::int64_t> int_list_flag(const cli::Flags& flags,
                                               const std::string& key,
                                               const std::string& def) {
  return list_flag(flags, key, def, "positive int-range integers",
                   positive_int);
}

/// Exits 2 on a --key that the --help text `usage` does not list (the
/// accepted keys are assembled at run time, so cli::Flags::require_known
/// cannot take them).
inline void require_listed(int argc, char* const* argv,
                           const std::string& usage) {
  std::vector<std::string> known{"help"};
  for (const std::string& token : cli::split(usage, ' '))
    if (token.rfind("--", 0) == 0) known.push_back(flag_key(token));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 &&
        std::find(known.begin(), known.end(), flag_key(arg)) == known.end())
      cli::die("unknown flag '--" + flag_key(arg) + "'");
  }
}

// --- baseline gate -----------------------------------------------------------

/// The baseline gate of the sentinel benches (sim_throughput,
/// overhead_scaling, fault_recovery, job_stream). A bench records a check
/// per gated number; Bench::finish() runs the gate before it writes the
/// --json document. --baseline=PATH compares each check with its reference
/// in PATH's "cells" object by its Rule and skips a cell without one. Exit
/// 0: every check passed; 1: one failed; 2: PATH is unreadable, has no
/// "cells" object or a cell of the wrong shape, or matches no check.
/// --update-baseline merge-rewrites PATH instead: the run's cells replace
/// theirs in place, the others keep their order.
struct Gate {
  static constexpr const char* kUsage = "--baseline=PATH --update-baseline";
  /// Relative slack of the floor and ceiling rules: a 25% regression trips
  /// them.
  static constexpr double kSlack = 0.25;
  /// Absolute slack the ceiling adds, for references near 0.
  static constexpr double kCeilingSlack = 0.02;

  enum Rule {
    kFloor,    ///< fails when value < ref x (1 - kSlack)
    kCeiling,  ///< fails when value > ref x (1 + kSlack) + kCeilingSlack
    kExact,    ///< fails when value != ref
  };
  struct Check {
    Rule rule = kFloor;
    std::string cell;  ///< label in the baseline's "cells" object
    double value = 0.0;
    std::string key;  ///< member of an object cell; empty: the cell's number
  };

  std::string path{};   ///< --baseline=PATH; empty: no gate
  bool update = false;  ///< --update-baseline: rewrite PATH from this run
  std::string bench{};  ///< "bench" and "note" of a rewritten PATH
  std::string note{};
  std::vector<Check> checks{};

  /// Records one check. The checks of one object cell are consecutive.
  void check(Rule rule, std::string cell, double value, std::string key = "") {
    checks.push_back(Check{rule, std::move(cell), value, std::move(key)});
  }

  /// Compares the checks against PATH, or rewrites it, and prints a line
  /// per check. Returns the exit code; 0 without --baseline.
  int run() const {
    if (path.empty()) return 0;
    return update ? rewrite() : compare();
  }

 private:
  int compare() const {
    int compared = 0, failed = 0;
    try {
      const json::Value doc = json::parse_file(path);
      const json::Value* cells = doc.find("cells");
      if (cells == nullptr || !cells->is_object())
        throw json::Error(path + ": missing 'cells' object");
      for (const Check& c : checks) {
        const std::string name = c.key.empty() ? c.cell : c.cell + " " + c.key;
        const json::Value* ref = cells->find(c.cell);
        if (ref == nullptr) {
          std::cout << "baseline: no reference for cell '" << name
                    << "' (skipped)\n";
          continue;
        }
        if (!c.key.empty()) ref = ref->find(c.key);
        if (ref == nullptr || !ref->is_number())
          throw json::Error(path + ": no number for '" + name + "'");
        ++compared;
        const double want = ref->as_number();
        const double bound = c.rule == kFloor     ? want * (1.0 - kSlack)
                             : c.rule == kCeiling ? want * (1.0 + kSlack) +
                                                        kCeilingSlack
                                                  : want;
        const bool ok = c.rule == kFloor     ? !(c.value < bound)
                        : c.rule == kCeiling ? !(c.value > bound)
                                             : c.value == bound;
        // Exact checks print every digit: their drift can sit in the last.
        const auto show = [&c](double v) {
          if (c.rule == kExact) return json::Value(v).dump();
          return fmt_double(v, std::fabs(v) >= 100.0 ? 0 : 4);
        };
        static constexpr const char* kFailsBy[] = {" < floor ", " > ceiling ",
                                                   " != "};
        if (ok) {
          std::cout << "ok " << name << ": " << show(c.value) << " (baseline "
                    << show(want) << ")\n";
        } else {
          ++failed;
          std::cerr << "FAIL " << name << ": " << show(c.value)
                    << kFailsBy[c.rule] << show(bound) << " (baseline "
                    << show(want) << ")\n";
        }
      }
    } catch (const json::Error& e) {
      std::cerr << "error: cannot read baseline: " << e.what() << "\n";
      return 2;
    }
    if (compared == 0) {
      std::cerr << "error: baseline matched no cell: " << path
                << " has no reference for any of the run's " << checks.size()
                << " check(s)\n";
      return 2;
    }
    if (failed > 0) {
      std::cerr << failed << " of " << compared << " check(s) failed against "
                << path << " — investigate, or refresh with --update-baseline\n";
      return 1;
    }
    return 0;
  }

  int rewrite() const {
    json::Value cells = json::Value::object();
    try {
      const json::Value old = json::parse_file(path);
      if (const json::Value* oc = old.find("cells"); oc && oc->is_object())
        cells = *oc;
    } catch (const json::Error&) {
      // No (readable) previous baseline: start fresh.
    }
    json::Value entry;  // the object cell being assembled
    for (std::size_t i = 0; i < checks.size(); ++i) {
      const Check& c = checks[i];
      if (c.key.empty()) {
        cells.set(c.cell, c.value);
        continue;
      }
      if (i == 0 || checks[i - 1].cell != c.cell) entry = json::Value::object();
      entry.set(c.key, c.value);
      cells.set(c.cell, entry);
    }
    json::Value doc = json::Value::object();
    doc.set("schema_version", kResultSchemaVersion);
    doc.set("bench", bench);
    doc.set("note", note);
    doc.set("cells", std::move(cells));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << doc.dump(2) << '\n';
    if (!out) {
      std::cerr << "error: cannot write baseline to '" << path << "'\n";
      return 2;
    }
    std::cout << "updated baseline " << path << "\n";
    return 0;
  }
};

// --- the bench ---------------------------------------------------------------

/// The flags one bench accepts: the common set minus `without`, plus the
/// groups it opts into and its own flags.
struct BenchFlags {
  /// Common flags the bench leaves out; they keep their defaults.
  std::vector<std::string> without{};
  Backend backend = Backend::kSim;  ///< the --backend default
  bool job_stream = false;          ///< accepts cli::kJobStreamFlagsUsage
  /// Non-empty for the gated benches: they accept Gate::kUsage, and
  /// --update-baseline writes this "note".
  std::string gate_note{};
  /// The bench's own flags as --help lists them; read through Bench::flags.
  std::string usage{};

  bool drops(const std::string& key) const {
    return std::find(without.begin(), without.end(), key) != without.end();
  }

  /// The --help text. It is also the list of accepted keys: every "--key"
  /// token in it is one (so --help and the parser cannot disagree).
  std::string help() const {
    std::string out;
    for (const std::string& token : cli::split(cli::kCommonFlagsUsage, ' '))
      if (!drops(flag_key(token))) out += token + ' ';
    if (job_stream) out += std::string(cli::kJobStreamFlagsUsage) + ' ';
    if (!gate_note.empty()) out += std::string(Gate::kUsage) + ' ';
    out += usage;
    if (!out.empty() && out.back() == ' ') out.pop_back();
    return out;
  }
};

struct Bench {
  /// Parses the flags `accepts` names: the common set of the header
  /// comment, the job-stream and gate groups, and the bench's own.
  Bench(int argc, char* const* argv, std::string bench_name,
        const BenchFlags& accepts = {})
      : name(std::move(bench_name)), flags(argc, argv), topo(Topology::tx2()) {
    ids = kernels::register_paper_kernels(registry);
    const std::string usage = accepts.help();
    cli::maybe_help(flags, usage);
    cli::require_no_positionals(flags);
    require_listed(argc, argv, usage);
    // A flag the bench does not accept is absent here: its default holds.
    backend = backend_flag(flags, accepts.backend);
    scale = flags.get_double("scale", backend == Backend::kRt &&
                                              !accepts.drops("scale")
                                          ? kRtDefaultScale
                                          : 1.0);
    if (!(scale > 0.0 && scale <= 1.0)) cli::die("--scale must be in (0, 1]");
    seed = flags.get_u64("seed", kFigureSeed);
    policy_filter = list_flag(flags, "policy", "", "policy names", parse_policy);
    scenario_override = scenario_flag(flags);
    if (flags.has("json")) {
      json_path = flags.get("json");
      if (json_path.empty()) json_path = "BENCH_" + name + ".json";
      runs = json::Value::array();
    }
    gate = Gate{.path = flags.get("baseline"),
                .update = flags.has("update-baseline"),
                .bench = name + "_baseline",
                .note = accepts.gate_note};
    if (flags.has("baseline") && gate.path.empty())
      cli::die("--baseline needs a PATH");
    if (gate.update && gate.path.empty())
      cli::die("--update-baseline needs --baseline=PATH to know where to "
               "write");
    if (!accepts.job_stream) return;
    jobs = static_cast<int>(int_flag(flags, "jobs", jobs, 1));
    inflight = static_cast<int>(
        int_flag(flags, "inflight", inflight, 0, " (0 = open loop)"));
    arrival = cli::arrival_flag(flags);
    if (arrival && inflight > 0)
      cli::die("--arrival (open loop) and --inflight (closed loop) are "
               "mutually exclusive");
    // Multi-tenant regime (the scheduler-as-a-service driver): --weights
    // alone implies the tenant count; both given must agree.
    tenant_weights = list_flag(
        flags, "weights", "", "positive numbers",
        [](const std::string& s) -> std::optional<double> {
          const auto w = to_number<double>(s);
          return w && *w > 0.0 ? w : std::nullopt;
        });
    tenants = static_cast<int>(int_flag(
        flags, "tenants",
        tenant_weights.empty()
            ? 1
            : static_cast<std::int64_t>(tenant_weights.size()),
        1));
    if (!tenant_weights.empty() &&
        static_cast<int>(tenant_weights.size()) != tenants)
      cli::die("--weights must list exactly one weight per --tenants");
    tenant_inflight = static_cast<int>(int_flag(
        flags, "tenant-inflight", tenant_inflight, 0, " (0 = unbounded)"));
    service_inflight = static_cast<int>(int_flag(
        flags, "service-inflight", service_inflight, 0, " (0 = unbounded)"));
    queue_tasks =
        int_flag(flags, "queue-tasks", queue_tasks, 0, " (0 = unbounded)");
  }

  // --- scenarios ------------------------------------------------------------

  /// The platform condition for a bench section: the --scenario override
  /// when given, else the bench's built-in default (installed by
  /// `fallback`). Benches own the returned value for the section's runs.
  template <typename Fallback>
  SpeedScenario make_scenario(const Topology& t, Fallback&& fallback) const {
    // Topology-mismatch diagnostics (e.g. a spec naming cluster 7 on a
    // 2-cluster machine) exit 2 like every other bad flag value.
    if (scenario_override) return build_scenario_or_exit(*scenario_override, t);
    SpeedScenario s(t);
    fallback(s);
    return s;
  }

  /// Name recorded in JSON output: the override's name, or "default" for
  /// the bench's built-in hard-wired condition.
  std::string scenario_name() const {
    if (!scenario_override) return "default";
    return scenario_override->name.empty() ? "<anonymous>"
                                           : scenario_override->name;
  }

  // --- executors ------------------------------------------------------------

  /// The canonical config every bench starts from (one place instead of a
  /// per-bench SimOptions/RtOptions copy).
  ExecutorConfig make_config() const {
    ExecutorConfig cfg;
    cfg.seed = seed;
    return cfg;
  }

  /// Executor for `policy` on this bench's backend; `topology` defaults to
  /// the TX2 model. `cfg.scenario` is overwritten with `scenario` — unless
  /// the --scenario override carries engine-side faults (fail-stop/freeze),
  /// which a SpeedScenario cannot express: then the declarative spec rides
  /// ExecutorConfig::scenario_spec instead, so the facade rebuilds the same
  /// speed model AND arms the fault plan (the CI fault smoke cells rely on
  /// this — a --scenario=fail-stop bench run must actually kill cores).
  std::unique_ptr<Executor> make(Policy policy, const SpeedScenario* scenario,
                                 ExecutorConfig cfg,
                                 const Topology* topology = nullptr) const {
    if (scenario_override && scenario_override->has_engine_faults()) {
      cfg.scenario = nullptr;
      cfg.scenario_spec = *scenario_override;
    } else {
      cfg.scenario = scenario;
    }
    return make_executor(backend, topology ? *topology : topo, policy, registry,
                         cfg);
  }

  /// Runs `spec` under `scenario` with `policy` through the facade, records
  /// the run under `label` for --json=, and returns the structured result
  /// (use .tasks_per_s for the figures). Callers that need non-default
  /// options should start from make_config().
  RunResult throughput(const std::string& label, Policy policy,
                       const workloads::SyntheticDagSpec& spec,
                       const SpeedScenario* scenario, ExecutorConfig cfg) {
    const Dag dag = workloads::make_synthetic_dag(spec);
    RunResult r = make(policy, scenario, cfg)->run(dag);
    report(label, r);
    return r;
  }
  RunResult throughput(const std::string& label, Policy policy,
                       const workloads::SyntheticDagSpec& spec,
                       const SpeedScenario* scenario) {
    return throughput(label, policy, spec, scenario, make_config());
  }

  /// The schedulers this bench run iterates: an explicit --policy list is
  /// honoured verbatim (every policy runs on every backend); otherwise the
  /// bench's own `defaults`, or Table-1 order when those are empty too.
  std::vector<Policy> policies(std::vector<Policy> defaults = {}) const {
    if (!policy_filter.empty()) return policy_filter;
    return defaults.empty() ? all_policies() : defaults;
  }

  // --- structured results (--json=) ----------------------------------------

  /// Records one engine run. `extra` merges bench-specific fields (kernel,
  /// parallelism, variant, ...) into the record. No-op without --json=.
  void report(const std::string& label, const RunResult& r,
              json::Value extra = json::Value::object()) {
    if (!runs.is_array()) return;
    json::Value rec = json::Value::object();
    rec.set("label", label);
    rec.set("policy", policy_name(r.policy));
    rec.set("backend", backend_name(r.backend));
    rec.set("scenario", scenario_name());
    rec.set("seed", seed);
    rec.set("makespan_s", r.makespan_s);
    rec.set("tasks", r.tasks);
    rec.set("tasks_per_s", r.tasks_per_s);
    json::Value ranks = json::Value::array();
    for (const StatsSnapshot& s : r.stats) ranks.push_back(snapshot_to_json(s));
    rec.set("ranks", std::move(ranks));
    for (const auto& [key, value] : extra.members()) rec.set(key, value);
    runs.push_back(std::move(rec));
  }

  /// The JSON "arrival" metadata of a job stream: the process the driver
  /// used ("poisson" | "fixed" | "closed" | "batch") and its parameter.
  /// `effective` overrides the parsed --arrival flag for drivers that
  /// derive their default process at run time (job_stream's calibrated
  /// Poisson rate); --inflight (closed loop) always wins.
  json::Value arrival_meta(
      const std::optional<cli::Arrival>& effective = std::nullopt) const {
    const std::optional<cli::Arrival>& a = effective ? effective : arrival;
    json::Value m = json::Value::object();
    if (inflight > 0) {
      m.set("mode", "closed");
      m.set("inflight", std::int64_t{inflight});
    } else if (a && a->kind == cli::Arrival::Kind::kPoisson) {
      m.set("mode", "poisson");
      m.set("rate_hz", a->rate_hz);
    } else if (a) {
      m.set("mode", "fixed");
      m.set("gap_s", a->gap_s);
    } else {
      m.set("mode", "batch");  // all jobs released together
    }
    return m;
  }

  /// Records one job stream (schema v2): every v1 per-run field (taken from
  /// the stream's last-completed job, whose snapshot carries the cumulative
  /// stats), plus "jobs", per-job "latency_s" p50/p95/p99 and the stream's
  /// arrival metadata (`effective` as in arrival_meta). No-op without
  /// --json=.
  void report_job_stream(const std::string& label,
                         const std::vector<RunResult>& stream,
                         std::optional<cli::Arrival> effective = std::nullopt,
                         json::Value extra = json::Value::object()) {
    if (!runs.is_array() || stream.empty()) return;
    std::vector<double> latencies;
    latencies.reserve(stream.size());
    json::Value per_job = json::Value::array();
    std::size_t recorded = 0;
    for (const RunResult& r : stream) {
      latencies.push_back(r.makespan_s);
      if (recorded == kMaxPerJobRecords) continue;
      ++recorded;
      json::Value j = json::Value::object();
      j.set("job", r.job);
      j.set("tenant", r.tenant);
      j.set("arrival_s", r.arrival_s);
      j.set("queue_s", r.queue_s);
      j.set("latency_s", r.makespan_s);
      if (!r.ok()) j.set("rejected", true);
      per_job.push_back(std::move(j));
    }
    json::Value lat = json::Value::object();
    lat.set("p50", percentile(latencies, 0.50));
    lat.set("p95", percentile(latencies, 0.95));
    lat.set("p99", percentile(latencies, 0.99));
    double sum = 0.0, max = 0.0;
    for (double l : latencies) {
      sum += l;
      max = std::max(max, l);
    }
    lat.set("mean", sum / static_cast<double>(latencies.size()));
    lat.set("max", max);

    std::int64_t stream_tasks = 0;
    for (const RunResult& r : stream) stream_tasks += r.tasks;
    json::Value rec = json::Value::object();
    rec.set("jobs", static_cast<std::int64_t>(stream.size()));
    rec.set("tasks_stream_total", stream_tasks);
    rec.set("latency_s", std::move(lat));
    rec.set("arrival", arrival_meta(effective));
    if (stream.size() > kMaxPerJobRecords) rec.set("per_job_capped", true);
    rec.set("per_job", std::move(per_job));
    for (const auto& [key, value] : extra.members()) rec.set(key, value);
    report(label, stream.back(), std::move(rec));
  }

  /// Records a bench-specific object as-is (for benches whose rows are not
  /// engine runs, e.g. the Table-1 feature matrix). No-op without --json=.
  void report_raw(json::Value rec) {
    if (runs.is_array()) runs.push_back(std::move(rec));
  }

  /// Runs the baseline gate, then writes BENCH JSON when --json= was given.
  /// Benches end main with `return b.finish();`: the gate's exit code
  /// (Gate::run; a gate that exits 2 writes no JSON), or 2 when the JSON
  /// file cannot be written.
  int finish() {
    const int verdict = gate.run();
    if (verdict == 2 || !runs.is_array()) return verdict;
    json::Value doc = json::Value::object();
    doc.set("schema_version", kResultSchemaVersion);
    doc.set("bench", name);
    doc.set("backend",
            backend_label.empty() ? backend_name(backend) : backend_label);
    doc.set("scenario", scenario_name());
    doc.set("seed", seed);
    doc.set("scale", scale);
    doc.set("runs", std::move(runs));
    runs = json::Value();
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    out << doc.dump(2) << '\n';
    if (!out) {
      std::cerr << "error: cannot write --json output to '" << json_path
                << "'\n";
      return 2;
    }
    std::cout << "\nwrote " << json_path << "\n";
    return verdict;
  }

  std::string name;
  cli::Flags flags;  ///< the command line; benches read their own flags here
  Backend backend = Backend::kSim;
  /// Overrides the JSON document's "backend" field for benches whose runs
  /// span engines (validation_realruntime sets "rt+sim"); per-run records
  /// always carry their own true backend.
  std::string backend_label;
  double scale = 1.0;
  std::uint64_t seed = kFigureSeed;
  // Job-stream flags (parsed only when the bench opts in; see ctor).
  int jobs = 1;       ///< --jobs=N: jobs per measured stream
  int inflight = 0;   ///< --inflight=K: closed loop concurrency; 0 = open
  std::optional<cli::Arrival> arrival;  ///< --arrival=; nullopt = batch
  // Multi-tenant job-stream flags (scheduler-as-a-service regime).
  int tenants = 1;                      ///< --tenants=N: sessions per stream
  std::vector<double> tenant_weights;   ///< --weights=; empty = all 1.0
  int tenant_inflight = 4;              ///< --tenant-inflight: per-tenant cap
  int service_inflight = 0;             ///< --service-inflight: global cap
  std::int64_t queue_tasks = 0;         ///< --queue-tasks: admission budget
  Gate gate;  ///< --baseline / --update-baseline (gated benches only)

  /// Tenant i's DRR weight: the --weights entry, or 1.0 when unset.
  double tenant_weight(int i) const {
    return tenant_weights.empty() ? 1.0
                                  : tenant_weights[static_cast<std::size_t>(i)];
  }
  std::vector<Policy> policy_filter;
  std::optional<scenario::ScenarioSpec> scenario_override;
  std::string json_path;
  json::Value runs;  ///< null until --json= arms the reporter
  Topology topo;
  TaskTypeRegistry registry;
  kernels::PaperKernelIds ids;
};

/// Header used by the per-figure tables: one column per scheduler.
inline std::vector<std::string> policy_header(const std::string& first,
                                              const std::vector<Policy>& ps) {
  std::vector<std::string> h{first};
  for (Policy p : ps) h.emplace_back(policy_name(p));
  return h;
}

inline void print_title(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Standard run banner so every bench states which engine produced its
/// numbers (virtual seconds on sim, wall seconds on rt).
inline void print_backend(const Bench& b) {
  std::cout << "backend: " << backend_name(b.backend) << "  (scale "
            << fmt_double(b.scale, 3) << ", seed " << b.seed << ", scenario "
            << b.scenario_name() << ")\n";
}

}  // namespace das::bench
