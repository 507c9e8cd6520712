#include "core/policy.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace das {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kRws: return "RWS";
    case Policy::kRwsmC: return "RWSM-C";
    case Policy::kFa: return "FA";
    case Policy::kFamC: return "FAM-C";
    case Policy::kDa: return "DA";
    case Policy::kDamC: return "DAM-C";
    case Policy::kDamP: return "DAM-P";
    case Policy::kDheft: return "dHEFT";
  }
  return "?";
}

const std::vector<Policy>& all_policies() {
  static const std::vector<Policy> kAll = {
      Policy::kRws, Policy::kRwsmC, Policy::kFa,  Policy::kFamC,
      Policy::kDa,  Policy::kDamC,  Policy::kDamP};
  return kAll;
}

const std::vector<Policy>& all_known_policies() {
  static const std::vector<Policy> kAll = [] {
    std::vector<Policy> v = all_policies();
    v.push_back(Policy::kDheft);
    return v;
  }();
  return kAll;
}

std::optional<Policy> policy_from_name(const std::string& name) {
  for (Policy p : all_known_policies())
    if (name == policy_name(p)) return p;
  return std::nullopt;
}

PolicyEngine::PolicyEngine(Policy policy, const Topology& topo, PttStore* ptt,
                           std::uint64_t seed, PolicyOptions options)
    : policy_(policy),
      traits_(policy_traits(policy)),
      topo_(&topo),
      ptt_(ptt),
      options_(options),
      rng_state_(seed ? seed : 0x9e3779b97f4a7c15ULL) {
  DAS_CHECK_MSG(!traits_.uses_ptt || ptt_ != nullptr,
                std::string(policy_name(policy)) + " requires a PttStore");
  const Cluster& fast = topo.cluster(topo.fastest_cluster());
  for (int c = fast.first_core; c < fast.end_core(); ++c) fast_cores_.push_back(c);
  for (const ExecutionPlace& p : topo.places())
    if (fast.contains(p.leader)) fast_cluster_places_.push_back(p);
  if (policy_ == Policy::kDheft) {
    reserved_ = std::make_unique<std::atomic<double>[]>(
        static_cast<std::size_t>(topo.num_cores()));
    for (int c = 0; c < topo.num_cores(); ++c)
      reserved_[static_cast<std::size_t>(c)].store(0.0, std::memory_order_relaxed);
  }
}

ExecutionPlace PolicyEngine::dheft_place(TaskTypeId type) {
  // HEFT's earliest-finish rule with runtime-discovered execution times
  // (dHEFT): finish(core) = reserved work on the core + the PTT's width-1
  // estimate. Unexplored cores borrow the mean of the explored entries so
  // the very first placements still spread by reserved work.
  const Ptt& table = ptt_->table(type);
  double explored_sum = 0.0;
  int explored = 0;
  for (const ExecutionPlace& p : topo_->width1_places()) {
    if (table.samples(topo_->place_id(p)) > 0) {
      explored_sum += table.value(topo_->place_id(p));
      ++explored;
    }
  }
  const double fallback = explored > 0 ? explored_sum / explored : 1e-4;

  double best_finish = std::numeric_limits<double>::infinity();
  ExecutionPlace best{0, 1};
  double best_est = fallback;
  for (const ExecutionPlace& p : topo_->width1_places()) {
    const int pid = topo_->place_id(p);
    const double est = table.samples(pid) > 0 ? table.value(pid) : fallback;
    const double finish =
        reserved_[static_cast<std::size_t>(p.leader)].load(std::memory_order_relaxed) +
        est;
    if (finish < best_finish) {
      best_finish = finish;
      best = p;
      best_est = est;
    }
  }
  reserved_[static_cast<std::size_t>(best.leader)].fetch_add(
      best_est, std::memory_order_relaxed);
  return best;
}

int PolicyEngine::round_robin_fast_core() {
  const std::uint32_t n = rr_counter_.fetch_add(1, std::memory_order_relaxed);
  return fast_cores_[n % fast_cores_.size()];
}

ExecutionPlace PolicyEngine::local_search(TaskTypeId type, int core) {
  // Algorithm 1, line 4: keep the resource partition and core fixed, mold
  // only the width; minimise predicted time x width (parallel cost).
  return search(type, topo_->local_places(core), Objective::kCost);
}

ExecutionPlace PolicyEngine::search(TaskTypeId type,
                                    const std::vector<ExecutionPlace>& candidates,
                                    Objective objective) {
  DAS_CHECK(!candidates.empty());
  DAS_CHECK(ptt_ != nullptr);
  const Ptt& table = ptt_->table(type);

  // Minimise the objective key. Zero-valued (unexplored) entries produce a
  // zero key and therefore win, yielding the paper's explore-everything
  // start-up behaviour. Exact key ties are broken by fewest samples, then
  // round-robin (or randomly under options_.random_tie_break) so the initial
  // exploration fans out instead of hammering candidate #0. Two passes and
  // no tie list: the first finds the minimum and counts its ties, the
  // second walks to the chosen one.
  auto key_of = [&](const ExecutionPlace& p, std::uint64_t& samples) {
    const int pid = topo_->place_id(p);
    const double v = table.value(pid);
    samples = table.samples(pid);
    return objective == Objective::kCost ? v * static_cast<double>(p.width) : v;
  };
  double best_key = std::numeric_limits<double>::infinity();
  std::uint64_t best_samples = 0;
  std::size_t first = 0;  // the first tie in candidate order
  std::size_t ties = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    std::uint64_t s = 0;
    const double key = key_of(candidates[i], s);
    if (key < best_key || (key == best_key && s < best_samples)) {
      best_key = key;
      best_samples = s;
      first = i;
      ties = 1;
    } else if (key == best_key && s == best_samples) {
      if (ties++ == 0) first = i;
    }
  }
  DAS_ASSERT(ties > 0);
  if (ties == 1) return candidates[first];

  std::size_t idx;
  if (options_.random_tie_break) {
    // splitmix64 step on the shared state; contention is irrelevant here
    // because ties only persist during the brief exploration phase.
    std::uint64_t s = rng_state_.fetch_add(0x9e3779b97f4a7c15ULL,
                                           std::memory_order_relaxed);
    SplitMix64 sm(s);
    idx = static_cast<std::size_t>(sm.next() % ties);
  } else {
    idx = tie_counter_.fetch_add(1, std::memory_order_relaxed) % ties;
  }
  // Walk to the idx-th tie. A concurrent PTT update (real-thread engine) can
  // change keys between the passes; the walk then settles on the last tie
  // it still sees.
  std::size_t pick = first;
  for (std::size_t i = first; i < candidates.size(); ++i) {
    std::uint64_t s = 0;
    if (key_of(candidates[i], s) != best_key || s != best_samples) continue;
    pick = i;
    if (idx-- == 0) break;
  }
  return candidates[pick];
}

void PolicyEngine::dheft_drain(const ExecutionPlace& place, double seconds) {
  // Drain the reservation by the observed time; clamp drift at zero.
  auto& r = reserved_[static_cast<std::size_t>(place.leader)];
  double cur = r.load(std::memory_order_relaxed);
  double next;
  do {
    next = std::max(cur - seconds, 0.0);
  } while (!r.compare_exchange_weak(cur, next, std::memory_order_relaxed));
}

}  // namespace das
