#pragma once
// Deterministic interleaving model checker for the lock-free core.
//
// A "Relacy-lite" stateless model checker: test scenarios instantiate the
// REAL primitive templates (util/mpsc_queue.hpp, util/eventcount.hpp,
// rt/wsq.hpp) with chk::Model, whose atomics/mutex/condvar route every
// operation through a cooperative scheduler and a weak-memory simulator.
// The explorer then either
//
//   - exhaustively enumerates every schedule of a small scenario via DFS
//     with prefix replay (Mode::kExhaustive), or
//   - samples seeded random schedules of a larger scenario, counting
//     distinct ones by hashing the choice sequence (Mode::kRandom).
//
// Choice points are (a) which thread runs each step and (b) WHICH STORE a
// load observes. (b) is what makes this a weak-memory checker rather than
// a sequential-consistency interleaver: every atomic location keeps its
// full modification order plus vector clocks, and a load may return any
// store that per-thread coherence and happens-before visibility allow —
// including stale values that a relaxed load is permitted to see. The
// model implements:
//
//   - release/acquire synchronization via per-store message clocks;
//   - release/acquire FENCES ([atomics.fences]): a release fence stamps
//     subsequent relaxed stores with the fence-time clock; relaxed loads
//     bank their store's clock into a pending set that an acquire fence
//     joins in;
//   - RMWs read the latest store in modification order and continue its
//     release sequence (their message clock joins the predecessor's);
//   - seq_cst via a global SC clock joined both ways by every seq_cst
//     operation and fence. This is deliberately CONSERVATIVE-STRONG
//     (seq_cst ops behave like full fences, as on mainstream ISAs), which
//     can mask bugs that only exist under the weakest reading of the
//     standard, but faithfully models the store/load duels (EventCount,
//     WSQ pop-vs-steal) this repo relies on — downgrade either side's
//     seq_cst and the checker produces the losing interleaving;
//   - data-race detection on non-atomic Model::var cells via vector
//     clocks (both mpsc mutants are caught this way: the consumer reaches
//     the payload without the release/acquire edge the contract promises);
//   - deadlock detection (every live thread blocked) and a per-schedule
//     step budget that flags livelocks.
//
// Mutant mode (set_mutant / DAS_CHK_MUTANT) weakens ONE memory order
// family at runtime; tests/model_check_test.cpp asserts each seeded
// mutant is caught while the unmutated algorithms pass. Because each
// scenario exercises a single primitive, a global downgrade is exactly a
// one-primitive mutation.
//
// Limits (documented, not accidental): at most kMaxThreads virtual
// threads; values up to 8 bytes, trivially copyable; modification order
// equals execution order (stores append); no spurious condvar wakeups.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace das::chk {

inline constexpr int kMaxThreads = 6;

// ---------------------------------------------------------------------------
// Mutants

enum class Mutant : int {
  kNone = 0,
  /// Plain release stores execute as relaxed (kills the mpsc publish edge).
  kStoreReleaseToRelaxed = 1,
  /// seq_cst thread fences execute as relaxed (kills the EventCount duel).
  kFenceSeqCstToRelaxed = 2,
  /// Same downgrade, exercised against the WSQ pop/steal duel.
  kWsqFenceSeqCstToRelaxed = 3,
  /// Compile-time RingBuffer<T, /*kMutantWrap=*/true> grow bug (no memory
  /// order involved; listed here so DAS_CHK_MUTANT covers every primitive).
  kRingBufferWrapCopy = 4,
  /// Acquire loads execute as relaxed (kills the mpsc consume edge).
  kLoadAcquireToRelaxed = 5,
  /// Compile-time sim::BasicRankSync<Model, /*kSlotBuffers=*/1>: one
  /// bound/stop cell per rank instead of one per window parity.
  kRankSyncSingleSlot = 6,
};

/// Applies to every subsequent explore() in this process. Not thread-safe;
/// call from the test body before exploring.
void set_mutant(Mutant m);
Mutant mutant();

/// DAS_CHK_MUTANT env var (unset/empty -> kNone). For manual runs:
///   DAS_CHK_MUTANT=2 ./model_check_test
Mutant mutant_from_env();

// ---------------------------------------------------------------------------
// Exploration API

struct Options {
  enum class Mode { kExhaustive, kRandom };
  Mode mode = Mode::kExhaustive;
  /// Upper bound on schedules for BOTH modes. Exhaustive runs report
  /// exhausted=false when the DFS is cut off here.
  std::uint64_t max_schedules = 200000;
  /// Per-schedule step budget; exceeding it is reported as a livelock.
  std::uint64_t max_steps = 100000;
  /// Random-mode PRNG seed (schedules are reproducible given the seed).
  std::uint64_t seed = 1;
};

struct Result {
  bool ok = true;
  std::string violation;        ///< first failure, empty when ok
  std::uint64_t schedules = 0;  ///< schedules executed
  /// Distinct choice sequences seen. Equals `schedules` in exhaustive mode
  /// (DFS never repeats); random mode dedups by hashing the sequence.
  std::uint64_t distinct_interleavings = 0;
  bool exhausted = false;  ///< exhaustive mode: DFS completed within budget
};

/// One schedule's worth of work: `make` is called once per schedule and
/// returns fresh thread bodies (capture shared state in shared_ptrs); the
/// optional `check` runs single-threaded after all threads finished.
struct Scenario {
  std::vector<std::function<void()>> threads;
  std::function<void()> check;  // may be null
};

/// Runs `make()` under every (bounded) schedule. Stops at the first
/// violation. Reentrant per process, not thread-safe.
Result explore(const Options& opts, const std::function<Scenario()>& make);

/// Asserts from inside a scenario thread or check(): records the first
/// failure and aborts the current schedule.
void expect(bool cond, const char* msg);

/// Fairness hint for retry loops ("pop returned empty, try again"): marks
/// the caller low-priority so the scheduler prefers other runnable threads
/// next step, keeping bounded exploration out of spin-livelocks.
void spin_yield();

/// Explicit nondeterministic choice (0..n-1) from inside a scenario thread:
/// explored exhaustively like any scheduler/value choice point. Used to
/// enumerate operation sequences (e.g. the RingBuffer scenarios).
int choice(int n);

// ---------------------------------------------------------------------------
// Model internals (pimpl'd into chk.cpp)

namespace detail {

struct LocState;
struct VarState;
struct MutexState;
struct CondVarState;

class AtomicBase {
 public:
  explicit AtomicBase(std::uint64_t init);
  ~AtomicBase();
  AtomicBase(const AtomicBase&) = delete;
  AtomicBase& operator=(const AtomicBase&) = delete;

 protected:
  std::uint64_t load_(std::memory_order o) const;
  void store_(std::uint64_t v, std::memory_order o);
  /// Atomic read-modify-write: f maps old raw value to new raw value.
  std::uint64_t rmw_(const std::function<std::uint64_t(std::uint64_t)>& f,
                     std::memory_order o);
  bool cas_(std::uint64_t& expected, std::uint64_t desired,
            std::memory_order success, std::memory_order failure);

 private:
  std::unique_ptr<LocState> s_;
};

class VarBase {
 public:
  explicit VarBase(std::uint64_t init);
  ~VarBase();
  VarBase(const VarBase&) = delete;
  VarBase& operator=(const VarBase&) = delete;

 protected:
  std::uint64_t read_() const;
  void write_(std::uint64_t v);

 private:
  std::unique_ptr<VarState> s_;
};

template <class T>
std::uint64_t to_u64(T v) {
  static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
  std::uint64_t r = 0;
  std::memcpy(&r, &v, sizeof(T));
  return r;
}

template <class T>
T from_u64(std::uint64_t r) {
  T v;
  std::memcpy(&v, &r, sizeof(T));
  return v;
}

}  // namespace detail

void thread_fence(std::memory_order o);

// ---------------------------------------------------------------------------
// The Model (see util/sync_model.hpp for the concept)

template <class T>
class Atomic : detail::AtomicBase {
 public:
  Atomic() : AtomicBase(detail::to_u64(T{})) {}
  Atomic(T init) : AtomicBase(detail::to_u64(init)) {}  // NOLINT(runtime/explicit)

  T load(std::memory_order o) const { return detail::from_u64<T>(load_(o)); }
  void store(T v, std::memory_order o) { store_(detail::to_u64(v), o); }

  T exchange(T v, std::memory_order o) {
    const std::uint64_t raw = detail::to_u64(v);
    return detail::from_u64<T>(rmw_([raw](std::uint64_t) { return raw; }, o));
  }

  T fetch_add(T delta, std::memory_order o) {
    return detail::from_u64<T>(rmw_(
        [delta](std::uint64_t old) {
          return detail::to_u64(
              static_cast<T>(detail::from_u64<T>(old) + delta));
        },
        o));
  }

  T fetch_sub(T delta, std::memory_order o) {
    return detail::from_u64<T>(rmw_(
        [delta](std::uint64_t old) {
          return detail::to_u64(
              static_cast<T>(detail::from_u64<T>(old) - delta));
        },
        o));
  }

  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order success,
                               std::memory_order failure) {
    std::uint64_t e = detail::to_u64(expected);
    const bool won = cas_(e, detail::to_u64(desired), success, failure);
    expected = detail::from_u64<T>(e);
    return won;
  }
};

/// Non-atomic cell with vector-clock race detection: any pair of accesses
/// (one a write) not ordered by happens-before fails the schedule.
template <class T>
class Var : detail::VarBase {
 public:
  Var() : VarBase(detail::to_u64(T{})) {}
  Var(T init) : VarBase(detail::to_u64(init)) {}  // NOLINT(runtime/explicit)
  Var& operator=(T v) {
    write_(detail::to_u64(v));
    return *this;
  }
  operator T() const { return detail::from_u64<T>(read_()); }  // NOLINT
};

class Mutex {
 public:
  Mutex();
  ~Mutex();
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;
  void lock();
  void unlock();

 private:
  friend class CondVar;
  std::unique_ptr<detail::MutexState> s_;
};

class CondVar {
 public:
  CondVar();
  ~CondVar();
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;
  void wait(std::unique_lock<Mutex>& g);
  void notify_one();
  void notify_all();

 private:
  std::unique_ptr<detail::CondVarState> s_;
};

struct Model {
  template <class T>
  using atomic = Atomic<T>;
  template <class T>
  using var = Var<T>;
  using mutex = Mutex;
  using cond_var = CondVar;
  static void thread_fence(std::memory_order o) { chk::thread_fence(o); }
  /// A spin-wait poll yields to the other virtual threads instead of
  /// burning the step budget on a value that cannot change meanwhile.
  static void yield() { spin_yield(); }
};

}  // namespace das::chk
