#pragma once
// The seven scheduler configurations of the paper's Table 1, implemented as
// one engine-agnostic decision object (Algorithm 1 + §4.1.2 / §4.2.3).
//
// | Name   | Asymmetry awareness | Moldability | Priority placement       |
// | RWS    | N/A                 | N/A         | N/A                      |
// | RWSM-C | N/A                 | Yes         | Resource Cost            |
// | FA     | Fixed               | No          | N/A (fast cores, RR)     |
// | FAM-C  | Fixed               | Yes         | Resource Cost            |
// | DA     | Dynamic             | No          | N/A (fastest core)       |
// | DAM-C  | Dynamic             | Yes         | Resource Cost            |
// | DAM-P  | Dynamic             | Yes         | Performance              |
//
// Both execution engines (src/rt real threads, src/sim discrete events) call
// the same three hooks:
//   on_ready    — wake-up time: which worker queue receives the task, is it
//                 steal-exempt, and (for high-priority tasks under the
//                 criticality-aware policies) the fixed execution place.
//   on_execute  — dequeue time: the final width molding for tasks without a
//                 fixed place (paper Fig. 3 steps 4-5: thieves re-run the
//                 local search).
//   record_sample — task completion: folds the observed span into the PTT.
//
// Search cost. Every search the hooks run is over a candidate list that
// Topology owns (local_places, width1_places, places). At construction the
// engine checks that the PttStore indexes exactly this topology's places and
// asks the store's table for each candidate's slot (Ptt::slot), so a search
// reads each candidate's value and sample count straight from its slot,
// with no place validation or slot lookup per candidate. The public
// search() over an explicit list resolves slots per candidate and applies
// the same selection, so both pick the same place from the same state.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/ptt.hpp"
#include "core/task_type.hpp"
#include "platform/topology.hpp"
#include "util/assert.hpp"

namespace das {

enum class Policy : std::uint8_t {
  kRws = 0,
  kRwsmC,
  kFa,
  kFamC,
  kDa,
  kDamC,
  kDamP,
  // Baseline beyond the paper's Table 1: dHEFT (Chronaki et al.) — every
  // ready task, regardless of priority, is centrally placed on the single
  // core with the earliest predicted FINISH time (reserved work + predicted
  // execution time), discovered at runtime like the PTT. Not moldable, not
  // work-stealing. Used by bench/baseline_dheft for the related-work
  // comparison the paper cites.
  kDheft,
};

const char* policy_name(Policy p);
/// The paper's seven schedulers, in Table 1 order (excludes baselines).
const std::vector<Policy>& all_policies();
/// Every policy with a parseable name: Table 1 plus the baselines. The
/// single source the name-lookup functions (and the facade's case-
/// insensitive parse_policy) iterate.
const std::vector<Policy>& all_known_policies();
/// Parses "DAM-C" etc. (exact spelling); returns nullopt for unknown names.
std::optional<Policy> policy_from_name(const std::string& name);

/// Introspection used to print the paper's Table 1.
struct PolicyTraits {
  const char* asymmetry;           // "N/A" | "Fixed" | "Dynamic"
  const char* moldability;         // "N/A" | "No" | "Yes"
  const char* priority_placement;  // "N/A" | "Resource Cost" | "Performance"
  bool uses_ptt;                   // needs the performance model
  bool priority_aware;             // treats high-priority tasks specially
};
constexpr PolicyTraits policy_traits(Policy p) {
  switch (p) {
    case Policy::kRws:
      return {"N/A", "N/A", "N/A", /*uses_ptt=*/false, /*priority_aware=*/false};
    case Policy::kRwsmC:
      return {"N/A", "Yes", "Resource Cost", true, false};
    case Policy::kFa:
      return {"Fixed", "No", "N/A", false, true};
    case Policy::kFamC:
      return {"Fixed", "Yes", "Resource Cost", true, true};
    case Policy::kDa:
      return {"Dynamic", "No", "N/A", true, true};
    case Policy::kDamC:
      return {"Dynamic", "Yes", "Resource Cost", true, true};
    case Policy::kDamP:
      return {"Dynamic", "Yes", "Performance", true, true};
    case Policy::kDheft:
      return {"Dynamic", "No", "Earliest Finish", true, false};
  }
  return {"?", "?", "?", false, false};
}

/// Whether the policy molds widths at dequeue time (the on_execute local
/// search).
constexpr bool policy_moldable(Policy p) {
  return p == Policy::kRwsmC || p == Policy::kFamC || p == Policy::kDamC ||
         p == Policy::kDamP;
}

struct WakeDecision {
  int queue_core = 0;       ///< worker whose queue receives the task
  bool stealable = true;    ///< false => steal-exempt inbox (paper §4.1.2)
  bool has_fixed_place = false;
  ExecutionPlace fixed_place{};
};

/// Tunables mostly exercised by the ablation bench; the defaults reproduce
/// the paper's scheduler.
struct PolicyOptions {
  bool steal_exempt_high_priority = true;  ///< paper disables stealing of
                                           ///< high-priority tasks
  bool remold_on_dequeue = true;           ///< re-run the local search when a
                                           ///< (stolen) task is dequeued
  bool random_tie_break = false;           ///< default: round-robin
};

class PolicyEngine {
 public:
  /// `ptt` may be null only for policies with traits().uses_ptt == false.
  PolicyEngine(Policy policy, const Topology& topo, PttStore* ptt,
               std::uint64_t seed = 1, PolicyOptions options = {});

  Policy policy() const { return policy_; }
  const PolicyTraits& traits() const { return traits_; }
  const Topology& topology() const { return *topo_; }
  const PolicyOptions& options() const { return options_; }

  /// Wake-up decision for a task released by (or spawned from) `waking_core`.
  WakeDecision on_ready(TaskTypeId type, Priority priority, int waking_core);

  /// Final place for a task WITHOUT a fixed place, dequeued by `core`.
  /// Low-priority molding: local search minimising PTT(c,w) * w.
  ExecutionPlace on_execute(TaskTypeId type, Priority priority, int core);

  /// Folds an observed task span into the model (no-op for RWS / FA).
  void record_sample(TaskTypeId type, const ExecutionPlace& place, double seconds);

  // Exposed for tests and analysis ------------------------------------------
  enum class Objective { kCost, kTime };
  /// The min-search of Algorithm 1 over an explicit candidate set, with the
  /// zero-entry exploration semantics and fewest-samples tie-breaking.
  ExecutionPlace search(TaskTypeId type,
                        const std::vector<ExecutionPlace>& candidates,
                        Objective objective);

 private:
  /// A candidate place with its PTT slot.
  struct Candidate {
    ExecutionPlace place;
    int slot = 0;
  };
  using Candidates = std::vector<Candidate>;

  /// search() over a precomputed candidate list of `table`'s topology.
  ExecutionPlace search(const Ptt& table, const Candidates& candidates,
                        Objective objective);
  /// Algorithm 1's min-search: the index of the candidate to pick among
  /// `n`, given each one's key and sample count (policy.cpp).
  template <typename KeyOf>
  std::size_t pick(std::size_t n, KeyOf key_of);
  ExecutionPlace local_search(TaskTypeId type, int core);
  int round_robin_fast_core();
  ExecutionPlace dheft_place(TaskTypeId type);
  /// dHEFT completion: drain the leader's reservation by the observed time
  /// (out-of-line: the CAS loop's ordering argument lives in policy.cpp).
  void dheft_drain(const ExecutionPlace& place, double seconds);

  Policy policy_;
  PolicyTraits traits_;
  const Topology* topo_;
  PttStore* ptt_;
  PolicyOptions options_;
  std::vector<int> fast_cores_;                      // FA round-robin targets
  // The Topology-owned candidate lists with their slots, in list order
  // (empty when the policy reads no PTT).
  std::vector<Candidates> local_candidates_;  // [core]: local_places(core)
  Candidates width1_candidates_;              // width1_places()
  Candidates place_candidates_;               // places()
  std::atomic<std::uint32_t> rr_counter_{0};
  std::atomic<std::uint32_t> tie_counter_{0};
  std::atomic<std::uint64_t> rng_state_;             // splitmix for random ties

  // dHEFT: per-core reserved work (seconds of placed-but-unfinished tasks).
  // Incremented by the estimate at placement, drained by the observed time
  // at completion; the small drift between the two is self-correcting.
  std::unique_ptr<std::atomic<double>[]> reserved_;
};

// --- hook definitions --------------------------------------------------------
// Inline so the engines' dispatch loops fold the per-call policy switch and
// the trivial bodies (RWS/FA wake-up, the non-moldable width-1 on_execute,
// the PTT-less record_sample) into the caller. The searches, round-robin and
// dHEFT helpers stay out of line in policy.cpp: they are the genuinely
// expensive branches, and keeping them there keeps the relaxed-atomic
// counters inside the lint whitelist.

inline WakeDecision PolicyEngine::on_ready(TaskTypeId type, Priority priority,
                                           int waking_core) {
  DAS_CHECK(waking_core >= 0 && waking_core < topo_->num_cores());

  if (policy_ == Policy::kDheft) {
    // dHEFT centrally places EVERY task (priority plays no role) and does
    // not allow stealing to second-guess the placement.
    const ExecutionPlace p = dheft_place(type);
    return WakeDecision{p.leader, /*stealable=*/false, true, p};
  }
  // ALL tasks under the priority-oblivious schedulers, and low-priority
  // tasks under every other one, stay on the waking core's queue to
  // preserve data reuse across dependent tasks (paper §3.2); idle workers
  // may steal them.
  if (!traits_.priority_aware || priority == Priority::kLow)
    return WakeDecision{waking_core, /*stealable=*/true, false, {}};
  const bool exempt = options_.steal_exempt_high_priority;
  ExecutionPlace p{};
  switch (policy_) {
    case Policy::kFa:
      // Statically-fast cores, round-robin, width 1 (CATS-style).
      p = ExecutionPlace{round_robin_fast_core(), 1};
      break;
    case Policy::kFamC:
      // FA's strict mapping to the statically-fast cores (round-robin),
      // plus moldability: the width is chosen by the local cost search at
      // the assigned core. Note the core choice itself stays PTT-blind —
      // that is what keeps half the criticals on a perturbed fast core in
      // the paper's Fig. 5(d) (35% (C0,1) / 48% (C1,1) / 17% (C0,2)).
      p = local_search(type, round_robin_fast_core());
      break;
    case Policy::kDa:
      // Global search over single cores for the best predicted time.
      p = search(ptt_->table(type), width1_candidates_, Objective::kTime);
      break;
    case Policy::kDamC:
      // Global search minimising PTT(c,w) * w (Algorithm 1, line 8).
      p = search(ptt_->table(type), place_candidates_, Objective::kCost);
      break;
    case Policy::kDamP:
      // Global search minimising PTT(c,w) (Algorithm 1, line 11).
      p = search(ptt_->table(type), place_candidates_, Objective::kTime);
      break;
    case Policy::kRws:
    case Policy::kRwsmC:
    case Policy::kDheft:
      DAS_ASSERT(!"handled above");
      break;
  }
  return WakeDecision{p.leader, !exempt, true, p};
}

inline ExecutionPlace PolicyEngine::on_execute(TaskTypeId type,
                                               Priority priority, int core) {
  DAS_CHECK(core >= 0 && core < topo_->num_cores());
  (void)priority;  // high-priority tasks with fixed places never reach here
  if (policy_moldable(policy_)) return local_search(type, core);
  // Non-moldable schedulers always run where they dequeue, width 1.
  return ExecutionPlace{core, 1};
}

inline void PolicyEngine::record_sample(TaskTypeId type,
                                        const ExecutionPlace& place,
                                        double seconds) {
  if (!traits_.uses_ptt) return;
  ptt_->table(type).update(place, seconds);
  if (policy_ == Policy::kDheft) dheft_drain(place, seconds);
}

}  // namespace das
