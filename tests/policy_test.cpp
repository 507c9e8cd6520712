// Tests for the seven scheduling policies (Algorithm 1 + Table 1): wake-up
// routing, steal exemption, fixed-place computation, local/global searches
// against brute force, exploration of zero entries, and the Table 1 traits.

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "core/policy.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace das {
namespace {

constexpr TaskTypeId kT = 0;

class PolicyFixture : public ::testing::Test {
 protected:
  PolicyFixture() : topo_(Topology::tx2()), ptt_(topo_, 1) {}

  PolicyEngine make(Policy p, PolicyOptions opts = {}) {
    return PolicyEngine(p, topo_, &ptt_, /*seed=*/1, opts);
  }

  /// Seeds the PTT so that every place has a distinct, known value:
  /// value = 1 + place_id (seconds).
  void seed_distinct() {
    for (int pid = 0; pid < topo_.num_places(); ++pid)
      ptt_.table(kT).fill(0.0);
    for (int pid = 0; pid < topo_.num_places(); ++pid)
      ptt_.table(kT).update(pid, 1.0 + pid);
  }

  /// Brute-force arg-min over candidates.
  ExecutionPlace brute_min(const std::vector<ExecutionPlace>& cands,
                           bool cost) const {
    double best = std::numeric_limits<double>::infinity();
    ExecutionPlace arg{};
    for (const auto& p : cands) {
      const double v = ptt_.table(kT).value(topo_.place_id(p));
      const double key = cost ? v * p.width : v;
      if (key < best) {
        best = key;
        arg = p;
      }
    }
    return arg;
  }

  Topology topo_;
  PttStore ptt_;
};

TEST_F(PolicyFixture, Table1Traits) {
  EXPECT_STREQ(policy_traits(Policy::kRws).asymmetry, "N/A");
  EXPECT_STREQ(policy_traits(Policy::kRwsmC).moldability, "Yes");
  EXPECT_STREQ(policy_traits(Policy::kFa).asymmetry, "Fixed");
  EXPECT_STREQ(policy_traits(Policy::kFamC).priority_placement, "Resource Cost");
  EXPECT_STREQ(policy_traits(Policy::kDa).asymmetry, "Dynamic");
  EXPECT_STREQ(policy_traits(Policy::kDamC).priority_placement, "Resource Cost");
  EXPECT_STREQ(policy_traits(Policy::kDamP).priority_placement, "Performance");
  EXPECT_FALSE(policy_traits(Policy::kRws).uses_ptt);
  EXPECT_FALSE(policy_traits(Policy::kFa).uses_ptt);
  EXPECT_TRUE(policy_traits(Policy::kDa).uses_ptt);
  EXPECT_FALSE(policy_traits(Policy::kRwsmC).priority_aware);
  EXPECT_TRUE(policy_traits(Policy::kFa).priority_aware);
}

TEST_F(PolicyFixture, NamesRoundTrip) {
  for (Policy p : all_policies()) {
    const auto back = policy_from_name(policy_name(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(policy_from_name("NOPE").has_value());
  EXPECT_EQ(all_policies().size(), 7u);
}

TEST_F(PolicyFixture, PttRequiredExactlyWhenTraitsSaySo) {
  for (Policy p : all_policies()) {
    if (policy_traits(p).uses_ptt) {
      EXPECT_THROW(PolicyEngine(p, topo_, nullptr), PreconditionError)
          << policy_name(p);
    } else {
      EXPECT_NO_THROW(PolicyEngine(p, topo_, nullptr)) << policy_name(p);
    }
  }
}

TEST_F(PolicyFixture, PttStoreMustIndexTheEnginesTopology) {
  // The hooks read PTT entries by precomputed slot, unchecked, so an engine
  // refuses a store built over other places; an equal copy of the topology
  // is fine, and so is a store the policy never reads.
  const Topology other = Topology::symmetric(1, 2);
  PttStore small(other, 1);
  for (Policy p : all_known_policies()) {
    if (policy_traits(p).uses_ptt) {
      EXPECT_THROW(PolicyEngine(p, topo_, &small), PreconditionError)
          << policy_name(p);
    } else {
      EXPECT_NO_THROW(PolicyEngine(p, topo_, &small)) << policy_name(p);
    }
  }
  const Topology copy = Topology::tx2();
  PttStore same_places(copy, 1);
  PolicyEngine eng(Policy::kDamC, topo_, &same_places);
  EXPECT_TRUE(eng.on_ready(kT, Priority::kHigh, 0).has_fixed_place);
  EXPECT_THROW(eng.on_execute(kT, Priority::kLow, topo_.num_cores()),
               PreconditionError);
}

// --- Wake-up routing ---------------------------------------------------------

TEST_F(PolicyFixture, LowPriorityStaysLocalAndStealableForAllPolicies) {
  for (Policy p : all_policies()) {
    PolicyEngine eng = make(p);
    for (int core : {0, 3, 5}) {
      const WakeDecision wd = eng.on_ready(kT, Priority::kLow, core);
      EXPECT_EQ(wd.queue_core, core) << policy_name(p);
      EXPECT_TRUE(wd.stealable) << policy_name(p);
      EXPECT_FALSE(wd.has_fixed_place) << policy_name(p);
    }
  }
}

TEST_F(PolicyFixture, RwsIgnoresPriority) {
  for (Policy p : {Policy::kRws, Policy::kRwsmC}) {
    PolicyEngine eng = make(p);
    const WakeDecision wd = eng.on_ready(kT, Priority::kHigh, 4);
    EXPECT_EQ(wd.queue_core, 4);
    EXPECT_TRUE(wd.stealable);
    EXPECT_FALSE(wd.has_fixed_place);
  }
}

TEST_F(PolicyFixture, FaRoundRobinsOverFastCores) {
  PolicyEngine eng = make(Policy::kFa);
  std::multiset<int> targets;
  for (int i = 0; i < 10; ++i) {
    const WakeDecision wd = eng.on_ready(kT, Priority::kHigh, 4);
    EXPECT_FALSE(wd.stealable);
    ASSERT_TRUE(wd.has_fixed_place);
    EXPECT_EQ(wd.fixed_place.width, 1);
    EXPECT_EQ(wd.queue_core, wd.fixed_place.leader);
    // Fast cluster on TX2 = denver cores {0, 1}.
    EXPECT_LE(wd.queue_core, 1);
    targets.insert(wd.queue_core);
  }
  // Round-robin: an even 50/50 split (paper Fig. 5(c)).
  EXPECT_EQ(targets.count(0), 5u);
  EXPECT_EQ(targets.count(1), 5u);
}

TEST_F(PolicyFixture, FamCRoundRobinsFastCoresAndMoldsWidthLocally) {
  seed_distinct();
  PolicyEngine eng = make(Policy::kFamC);
  // First wake lands on fast core 0, second on fast core 1 (round-robin,
  // PTT-blind core choice); the WIDTH comes from the local cost search.
  const WakeDecision wd0 = eng.on_ready(kT, Priority::kHigh, 4);
  ASSERT_TRUE(wd0.has_fixed_place);
  EXPECT_EQ(wd0.fixed_place, brute_min(topo_.local_places(0), /*cost=*/true));
  const WakeDecision wd1 = eng.on_ready(kT, Priority::kHigh, 4);
  ASSERT_TRUE(wd1.has_fixed_place);
  EXPECT_EQ(wd1.fixed_place, brute_min(topo_.local_places(1), /*cost=*/true));
  // Both stay inside the statically-fast (denver) cluster.
  EXPECT_EQ(topo_.cluster_index_of(wd0.fixed_place.leader), 0);
  EXPECT_EQ(topo_.cluster_index_of(wd1.fixed_place.leader), 0);
}

TEST_F(PolicyFixture, DaPicksFastestSingleCore) {
  seed_distinct();
  // Make core 3 (a57) clearly the fastest single core.
  for (int i = 0; i < 64; ++i) ptt_.table(kT).update(ExecutionPlace{3, 1}, 0.01);
  PolicyEngine eng = make(Policy::kDa);
  const WakeDecision wd = eng.on_ready(kT, Priority::kHigh, 0);
  ASSERT_TRUE(wd.has_fixed_place);
  EXPECT_EQ(wd.fixed_place, (ExecutionPlace{3, 1}));
  EXPECT_FALSE(wd.stealable);
}

TEST_F(PolicyFixture, DamCMinimisesGlobalParallelCost) {
  seed_distinct();
  PolicyEngine eng = make(Policy::kDamC);
  const WakeDecision wd = eng.on_ready(kT, Priority::kHigh, 5);
  ASSERT_TRUE(wd.has_fixed_place);
  EXPECT_EQ(wd.fixed_place, brute_min(topo_.places(), /*cost=*/true));
}

TEST_F(PolicyFixture, DamPMinimisesGlobalTime) {
  seed_distinct();
  // Make the wide A57 place the fastest in TIME but poor in COST:
  // time 0.5 beats every other entry (>= 1.0), but cost 0.5*4 = 2.0 loses
  // to (0,1)'s cost of 1.0.
  for (int i = 0; i < 64; ++i) ptt_.table(kT).update(ExecutionPlace{2, 4}, 0.5);
  PolicyEngine eng_p = make(Policy::kDamP);
  const WakeDecision wd_p = eng_p.on_ready(kT, Priority::kHigh, 0);
  ASSERT_TRUE(wd_p.has_fixed_place);
  EXPECT_EQ(wd_p.fixed_place, (ExecutionPlace{2, 4}));
  EXPECT_EQ(wd_p.fixed_place, brute_min(topo_.places(), /*cost=*/false));
  // DAM-C must NOT pick it (cost 0.05*4 = 0.2 > min width-1 entries...).
  PolicyEngine eng_c = make(Policy::kDamC);
  const WakeDecision wd_c = eng_c.on_ready(kT, Priority::kHigh, 0);
  EXPECT_EQ(wd_c.fixed_place, brute_min(topo_.places(), /*cost=*/true));
  EXPECT_NE(wd_c.fixed_place, wd_p.fixed_place);
}

// --- Dequeue-time molding ----------------------------------------------------

TEST_F(PolicyFixture, NonMoldablePoliciesRunWidthOneWhereDequeued) {
  seed_distinct();
  for (Policy p : {Policy::kRws, Policy::kFa, Policy::kDa}) {
    PolicyEngine eng = make(p);
    for (int core = 0; core < topo_.num_cores(); ++core) {
      const ExecutionPlace place = eng.on_execute(kT, Priority::kLow, core);
      EXPECT_EQ(place, (ExecutionPlace{core, 1})) << policy_name(p);
    }
  }
}

TEST_F(PolicyFixture, MoldablePoliciesRunLocalCostSearch) {
  seed_distinct();
  for (Policy p : {Policy::kRwsmC, Policy::kFamC, Policy::kDamC, Policy::kDamP}) {
    PolicyEngine eng = make(p);
    for (int core = 0; core < topo_.num_cores(); ++core) {
      const ExecutionPlace place = eng.on_execute(kT, Priority::kLow, core);
      EXPECT_EQ(place, brute_min(topo_.local_places(core), /*cost=*/true))
          << policy_name(p) << " core " << core;
      // The local search must keep the core inside the place.
      EXPECT_LE(place.leader, core);
      EXPECT_GT(place.leader + place.width, core);
    }
  }
}

// --- Exploration -------------------------------------------------------------

TEST_F(PolicyFixture, ZeroInitExploresEveryPlaceOnce) {
  PolicyEngine eng = make(Policy::kDamC);
  std::set<int> chosen;
  // With an all-zero PTT every search returns a zero entry; simulate the
  // runtime by giving each chosen place one sample, so the tie pool shrinks.
  for (int i = 0; i < topo_.num_places(); ++i) {
    const WakeDecision wd = eng.on_ready(kT, Priority::kHigh, 0);
    ASSERT_TRUE(wd.has_fixed_place);
    const int pid = topo_.place_id(wd.fixed_place);
    EXPECT_TRUE(chosen.insert(pid).second)
        << "place " << to_string(wd.fixed_place) << " explored twice";
    eng.record_sample(kT, wd.fixed_place, 1.0);
  }
  EXPECT_EQ(static_cast<int>(chosen.size()), topo_.num_places());
}

TEST_F(PolicyFixture, RandomTieBreakStillExploresAll) {
  PolicyOptions opts;
  opts.random_tie_break = true;
  PolicyEngine eng = make(Policy::kDamP, opts);
  std::set<int> chosen;
  for (int i = 0; i < topo_.num_places(); ++i) {
    const WakeDecision wd = eng.on_ready(kT, Priority::kHigh, 0);
    chosen.insert(topo_.place_id(wd.fixed_place));
    eng.record_sample(kT, wd.fixed_place, 1.0);
  }
  // Fewest-samples tie-breaking still guarantees full coverage.
  EXPECT_EQ(static_cast<int>(chosen.size()), topo_.num_places());
}

TEST_F(PolicyFixture, SlotIndexedSearchMatchesExplicitCandidates) {
  // The hooks search the Topology-owned candidate lists through precomputed
  // PTT slots; search() over an explicit copy of the same list must pick
  // the same place from the same state, ties included. Two engines built
  // alike share the PTT: one runs the hooks, the other the explicit
  // searches in the same order, so their tie-break state advances alike.
  const Cluster& fast = topo_.cluster(topo_.fastest_cluster());
  Xoshiro256 rng(11);
  for (const bool random_ties : {false, true}) {
    for (const Policy p :
         {Policy::kDa, Policy::kFamC, Policy::kDamC, Policy::kDamP}) {
      for (int round = 0; round < 50; ++round) {
        // Unexplored entries, repeated values (key and sample ties) and
        // distinct ones.
        ptt_.table(kT).fill(0.0);
        for (int pid = 0; pid < topo_.num_places(); ++pid) {
          const std::uint64_t kind = rng.below(4);
          if (kind == 0) continue;
          const double v = kind == 1 ? 1e-3 : kind == 2 ? 2e-3 : rng.uniform();
          for (std::uint64_t k = 0, n = 1 + rng.below(2); k < n; ++k)
            ptt_.table(kT).update(pid, v);
        }
        PolicyEngine hooks = make(p, {.random_tie_break = random_ties});
        PolicyEngine explicit_lists = make(p, {.random_tie_break = random_ties});
        const auto objective = p == Policy::kDamC || p == Policy::kFamC
                                   ? PolicyEngine::Objective::kCost
                                   : PolicyEngine::Objective::kTime;
        for (int call = 0; call < 2 * topo_.num_cores(); ++call) {
          const int core = call % topo_.num_cores();
          // Wake-up: the global (or, for FAM-C, round-robin local) search.
          std::vector<ExecutionPlace> list =
              p == Policy::kDa     ? topo_.width1_places()
              : p == Policy::kFamC ? topo_.local_places(
                                         fast.first_core + call % fast.num_cores)
                                   : topo_.places();
          const WakeDecision wd = hooks.on_ready(kT, Priority::kHigh, core);
          ASSERT_TRUE(wd.has_fixed_place);
          EXPECT_EQ(wd.fixed_place, explicit_lists.search(kT, list, objective))
              << policy_name(p) << " round " << round << " call " << call;
          // Dequeue: the moldable policies' local cost search.
          if (!policy_moldable(p)) continue;
          list = topo_.local_places(core);
          EXPECT_EQ(hooks.on_execute(kT, Priority::kLow, core),
                    explicit_lists.search(kT, list,
                                          PolicyEngine::Objective::kCost))
              << policy_name(p) << " round " << round << " core " << core;
        }
      }
    }
  }
}

TEST_F(PolicyFixture, RecordSampleIsNoOpForNonPttPolicies) {
  PolicyEngine rws(Policy::kRws, topo_, &ptt_);
  rws.record_sample(kT, ExecutionPlace{0, 1}, 9.0);
  EXPECT_EQ(ptt_.table(kT).samples(ExecutionPlace{0, 1}), 0u);
  PolicyEngine dam = make(Policy::kDamC);
  dam.record_sample(kT, ExecutionPlace{0, 1}, 9.0);
  EXPECT_EQ(ptt_.table(kT).samples(ExecutionPlace{0, 1}), 1u);
}

TEST_F(PolicyFixture, StealExemptionCanBeDisabled) {
  PolicyOptions opts;
  opts.steal_exempt_high_priority = false;
  PolicyEngine eng = make(Policy::kDamC, opts);
  const WakeDecision wd = eng.on_ready(kT, Priority::kHigh, 0);
  EXPECT_TRUE(wd.stealable);
  EXPECT_TRUE(wd.has_fixed_place);
}

// --- Adaptation property: the model redirects after a regime change ----------

class AdaptationTest : public ::testing::TestWithParam<Policy> {};

TEST_P(AdaptationTest, HighPriorityPlacementLeavesSlowedCore) {
  const Topology topo = Topology::tx2();
  PttStore ptt(topo, 1);
  PolicyEngine eng(GetParam(), topo, &ptt, 1);

  // Warm up: denver core 0 is the best single place.
  for (int pid = 0; pid < topo.num_places(); ++pid) {
    const ExecutionPlace& p = topo.place_at(pid);
    const double base = topo.cluster_of_core(p.leader).base_speed;
    for (int i = 0; i < 20; ++i)
      ptt.table(kT).update(pid, 0.001 / base * (p.leader == 0 ? 0.9 : 1.0));
  }
  const WakeDecision before = eng.on_ready(kT, Priority::kHigh, 0);
  ASSERT_TRUE(before.has_fixed_place);
  EXPECT_EQ(before.fixed_place.leader, 0);

  // Interference hits core 0: observed times triple for every place that
  // contains it. A handful of weighted updates must redirect the placement
  // (the paper's "at least three measurements" property).
  for (int i = 0; i < 12; ++i) {
    ptt.table(kT).update(ExecutionPlace{0, 1}, 0.0027);
    ptt.table(kT).update(ExecutionPlace{0, 2}, 0.0027);
  }
  const WakeDecision after = eng.on_ready(kT, Priority::kHigh, 0);
  ASSERT_TRUE(after.has_fixed_place);
  EXPECT_NE(after.fixed_place.leader, 0)
      << policy_name(GetParam()) << " kept the perturbed core";
}

INSTANTIATE_TEST_SUITE_P(DynamicPolicies, AdaptationTest,
                         ::testing::Values(Policy::kDa, Policy::kDamC,
                                           Policy::kDamP),
                         [](const auto& info) {
                           std::string n = policy_name(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
                           return n;
                         });

}  // namespace
}  // namespace das
