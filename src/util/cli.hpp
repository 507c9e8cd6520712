#pragma once
// Minimal command-line flag parsing for the bench and example drivers.
//
// Two argument forms only, so parsing stays unambiguous without a
// declaration step:
//   --key=value   a valued flag (e.g. --backend=rt, --scale=0.05)
//   --flag        a bare boolean flag (e.g. --help)
// Anything not starting with "--" is collected as a positional argument.
// Lookup is by key without the leading dashes.

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace das::cli {

class Flags {
 public:
  Flags(int argc, char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos) {
          values_[arg.substr(2)] = "";
        } else {
          values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        }
      } else {
        positional_.push_back(std::move(arg));
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string get(const std::string& key, const std::string& def = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

  double get_double(const std::string& key, double def) const {
    return parse_number<double>(key, def, [](const std::string& v, std::size_t* p) {
      return std::stod(v, p);
    });
  }

  std::int64_t get_int(const std::string& key, std::int64_t def) const {
    return parse_number<std::int64_t>(
        key, def,
        [](const std::string& v, std::size_t* p) { return std::stoll(v, p); });
  }

  std::uint64_t get_u64(const std::string& key, std::uint64_t def) const {
    return parse_number<std::uint64_t>(
        key, def,
        [](const std::string& v, std::size_t* p) { return std::stoull(v, p); });
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Exits with a diagnostic if any parsed --key is not in `known` — a
  /// typo'd flag name would otherwise silently fall back to its default.
  void require_known(std::initializer_list<const char*> known) const {
    for (const auto& [key, value] : values_) {
      bool ok = false;
      for (const char* k : known) ok = ok || key == k;
      if (!ok) {
        std::cerr << "error: unknown flag '--" << key << "'\n";
        std::exit(2);
      }
    }
  }

 private:
  template <typename T, typename Parse>
  T parse_number(const std::string& key, T def, Parse parse) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.empty()) return def;
    const std::string& v = it->second;
    try {
      std::size_t pos = 0;
      const T parsed = parse(v, &pos);
      // stod/stoll stop at the first bad character; require a full parse,
      // and keep stoull from silently wrapping negative input.
      if (pos != v.size() || (std::is_unsigned_v<T> && v[0] == '-'))
        throw std::invalid_argument(v);
      return parsed;
    } catch (const std::exception&) {
      std::cerr << "error: --" << key << "=" << v
                << " is not a valid number\n";
      std::exit(2);
    }
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The flags every bench driver accepts (see bench/support.hpp); examples
/// reuse the relevant prefix in their own --help text.
inline constexpr const char* kCommonFlagsUsage =
    "--backend=sim|rt --policy=NAME[,NAME...] --scenario=<name|file> "
    "--json=<path> --scale=F --seed=N";

/// The job-stream flags (bench/job_stream; fig9_kmeans takes only --jobs):
/// how many jobs a driver submits, how they arrive, and — for the
/// multi-tenant scheduler-as-a-service regime — how they are split across
/// weighted sessions.
inline constexpr const char* kJobStreamFlagsUsage =
    "--jobs=N --arrival=poisson:<rate>|fixed:<gap> --inflight=K "
    "--tenants=N --weights=W[,W...] --tenant-inflight=K "
    "--service-inflight=K --queue-tasks=N";

/// A job-stream arrival process: either a fixed inter-arrival gap (seconds)
/// or a Poisson process with the given mean rate (jobs/second). Drivers turn
/// it into per-job arrival offsets — virtual-time offsets on the sim
/// backend, wall-clock pacing on rt.
struct Arrival {
  enum class Kind { kFixed, kPoisson };
  Kind kind = Kind::kFixed;
  double gap_s = 0.0;    ///< kFixed: seconds between arrivals
  double rate_hz = 0.0;  ///< kPoisson: mean arrivals per second
};

/// Parses "poisson:<rate>" | "fixed:<gap>"; nullopt on malformed input
/// (unknown prefix, missing/non-positive number).
inline std::optional<Arrival> parse_arrival(const std::string& s) {
  const std::size_t colon = s.find(':');
  if (colon == std::string::npos) return std::nullopt;
  const std::string kind = s.substr(0, colon);
  const std::string num = s.substr(colon + 1);
  double value = 0.0;
  try {
    std::size_t pos = 0;
    value = std::stod(num, &pos);
    if (pos != num.size()) return std::nullopt;
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!(value > 0.0)) return std::nullopt;
  Arrival a;
  if (kind == "fixed") {
    a.kind = Arrival::Kind::kFixed;
    a.gap_s = value;
  } else if (kind == "poisson") {
    a.kind = Arrival::Kind::kPoisson;
    a.rate_hz = value;
  } else {
    return std::nullopt;
  }
  return a;
}

/// Resolves --arrival= against parse_arrival: nullopt when the flag is
/// absent, exits 2 with a diagnostic on a malformed value.
inline std::optional<Arrival> arrival_flag(const Flags& flags) {
  if (!flags.has("arrival")) return std::nullopt;
  const std::string v = flags.get("arrival");
  const auto a = parse_arrival(v);
  if (!a) {
    std::cerr << "error: --arrival=" << v
              << " (expected poisson:<rate> or fixed:<gap>, value > 0)\n";
    std::exit(2);
  }
  return a;
}

/// Prints "flags: <usage>" and exits 0 when --help was given.
inline void maybe_help(const Flags& flags, const std::string& usage) {
  if (!flags.has("help")) return;
  std::cout << "flags: " << usage << "\n";
  std::exit(0);
}

/// Drivers that take no positional arguments call this to reject the
/// "--key value" spelling (only "--key=value" is supported — the bare word
/// would otherwise be ignored silently and the flag fall back to its
/// default).
inline void require_no_positionals(const Flags& flags) {
  if (!flags.positional().empty()) {
    std::cerr << "error: unexpected argument '" << flags.positional().front()
              << "' (flags are spelled --key=value)\n";
    std::exit(2);
  }
}

inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

[[noreturn]] inline void die(const std::string& msg) {
  std::cerr << "error: " << msg << '\n';
  std::exit(2);
}

}  // namespace das::cli
