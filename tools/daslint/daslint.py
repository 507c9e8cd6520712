#!/usr/bin/env python3
"""daslint — project-specific lint rules the generic tools cannot express.

Rules (each violation prints `file:line: [rule] message`; exit 1 on any):

  hot-path-alloc   Between `// daslint: begin-hot-path(<name>)` and
                   `// daslint: end-hot-path` markers, no allocation:
                   new / make_unique / make_shared / malloc / calloc /
                   realloc / std::vector construction. The markers wrap the
                   rt dispatch path (src/rt/worker.cpp) and the simulator's
                   event step (src/sim/engine.cpp) — the no-allocation
                   property their overhead gates depend on.

  hot-path-lock    Same regions: no mutex/lock acquisition (std::mutex,
                   MutexLock, SpinlockGuard, lock_guard, unique_lock,
                   scoped_lock, .lock()). The hot path is lock-free by
                   design; a lock here is a regression even if benchmarks
                   miss it on an idle machine.

  hot-path-stdfunction  Same regions: no type-erased dispatch — naming
                   std::function or invoking a `.cost(...)` callable. The
                   steady-state path calls the inline policy hooks
                   (core/policy.hpp) directly, and a task type's cost
                   model, a tagged CostExpr, evaluates through
                   cost_expr_eval (core/cost_expr.hpp) instead.

  hot-path-park    Same regions: no parking/blocking primitives —
                   eventcount waits (prepare_wait / commit_wait /
                   wait_all_at_least), condition variables, sleeps,
                   thread joins. The parallel DES rank loop (the
                   `rank-window` region in src/sim/engine.cpp) must only
                   block at the window-phase boundaries OUTSIDE the
                   region: a park inside the per-rank event loop stalls
                   every other rank at the next phase barrier.

  sim-wall-clock   src/sim/** must not read wall-clock time (std::chrono
                   clocks, now_ns, clock_gettime, gettimeofday, time()).
                   The DES is deterministic virtual time; one wall-clock
                   read makes traces non-reproducible.

  sim-ambient-rand src/sim/** must not use ambient randomness
                   (std::random_device, rand, srand, std::mt19937 seeded
                   implicitly). All simulator randomness flows through the
                   seeded Xoshiro256 (util/rng.hpp).

  relaxed-whitelist  `memory_order_relaxed` may appear only in whitelisted
                   files (RELAXED_WHITELIST below). Every whitelisted file
                   documents its ordering argument; new relaxed usage must
                   be argued and whitelisted, not slipped in.

  unbounded-wait   src/net/** and src/exec/** must not call deadline-less
                   blocking receives (.recv / .recv_msg / .recv_any /
                   .recv_value / .recv_span / .take / .take_any): a dead
                   peer then wedges the caller forever. Use the *_for
                   bounded variants (Mailbox::take_any_for,
                   Comm::recv_any_for, Executor::wait_for). The primitives
                   themselves and synchronous request/reply client calls
                   carry an allow() with their liveness argument.

Suppression: append `// daslint: allow(<rule>)` to the offending line with
a reason. Matching is textual on comment- and string-stripped source, so
commentary about locks or allocation never trips a rule.

Usage:
  daslint.py [--root DIR]    lint DIR (default: repo root inferred from
                             this file's location); exit 1 on violations
  daslint.py --selftest      run the planted-violation corpus under
                             tools/daslint/selftest/ and assert every rule
                             fires (and that a clean file does not)
"""

import argparse
import os
import re
import sys

# Files allowed to use memory_order_relaxed (repo-relative, forward
# slashes). Each carries its ordering argument in comments at the use site.
RELAXED_WHITELIST = {
    "src/chk/chk.cpp",
    "src/core/policy.cpp",
    # PTT entries: relaxed loads and stores of independent per-entry values
    # (no ordering between entries is ever needed); the readers and the two
    # update paths are argued in the header comment of src/core/ptt.hpp.
    "src/core/ptt.cpp",
    "src/core/ptt.hpp",
    "src/rt/runtime.cpp",
    # Fault layer: heartbeat counter (freshness only — the watchdog compares
    # successive values, never orders data through it) and the monotonic
    # tasks_reexecuted/workers_failed stats counters. Handoff ordering rides
    # the kQuarantined release/acquire pair and the seq_cst dead_ flips,
    # argued in the file comment of src/rt/watchdog.cpp.
    "src/rt/runtime.hpp",
    "src/rt/watchdog.cpp",
    "src/rt/worker.cpp",
    "src/rt/wsq.hpp",
    "src/trace/stats.cpp",
    "src/trace/stats.hpp",
    "src/util/eventcount.hpp",
    "src/util/mpsc_queue.hpp",
    "src/util/spinlock.hpp",
    "src/workloads/interference.cpp",
    "src/workloads/interference.hpp",
}

HOT_ALLOC = re.compile(
    r"\bnew\b|make_unique|make_shared|\bmalloc\s*\(|\bcalloc\s*\(|"
    r"\brealloc\s*\(|std::vector\s*<[^;]*>\s*\("
)
HOT_LOCK = re.compile(
    r"std::mutex|\bMutexLock\b|\bSpinlockGuard\b|lock_guard|unique_lock|"
    r"scoped_lock|\.lock\s*\(\)"
)
HOT_STDFUNCTION = re.compile(r"std::function|\.cost\s*\(")
HOT_PARK = re.compile(
    r"prepare_wait|commit_wait|wait_all_at_least|condition_variable|"
    r"\bcv_\.wait\b|wait_for|wait_until|sleep_for|sleep_until|"
    r"\.join\s*\(\)|\bpthread_cond_wait\b"
)
SIM_WALL_CLOCK = re.compile(
    r"std::chrono|steady_clock|system_clock|high_resolution_clock|"
    r"\bnow_ns\s*\(|clock_gettime|gettimeofday|\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"
)
SIM_RAND = re.compile(r"std::random_device|\brand\s*\(\s*\)|\bsrand\s*\(")
RELAXED = re.compile(r"memory_order_relaxed")
# Deadline-less blocking receives; the *_for variants (take_for, recv_any_for
# ...) do not match because the name must be followed directly by "(". The
# bare-`take` alternative requires a comma'd argument list so WireWriter::take()
# (a buffer move-out, zero args) stays clean.
UNBOUNDED_WAIT = re.compile(
    r"(\.|->)\s*(recv_any|recv_msg|recv_value|recv_span|recv|take_any)"
    r"\s*(<[^<>;]*>)?\s*\("
    r"|(\.|->)\s*take\s*\([^()]*,"
)

BEGIN_MARK = re.compile(r"//\s*daslint:\s*begin-hot-path\(([\w-]+)\)")
END_MARK = re.compile(r"//\s*daslint:\s*end-hot-path")
ALLOW = re.compile(r"//\s*daslint:\s*allow\(([\w-]+)\)")


def strip_code(lines):
    """Per-line source with comments and string/char literals blanked.

    Block comments are tracked across lines; the result has the same line
    count so diagnostics keep their line numbers. Good enough for token
    lint (no raw strings / trigraphs in this tree).
    """
    out = []
    in_block = False
    for line in lines:
        res = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                j = line.find("*/", i)
                if j < 0:
                    i = n
                else:
                    in_block = False
                    i = j + 2
                continue
            c = line[i]
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                break  # rest of line is a comment
            if c == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                res.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                res.append(quote)
                continue
            res.append(c)
            i += 1
        out.append("".join(res))
    return out


def lint_file(root, rel, violations):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read().splitlines()
    except OSError as e:
        violations.append((rel, 0, "io", str(e)))
        return
    code = strip_code(raw)
    posix_rel = rel.replace(os.sep, "/")
    in_sim = posix_rel.startswith("src/sim/")
    in_net_exec = posix_rel.startswith(("src/net/", "src/exec/"))
    relaxed_ok = posix_rel in RELAXED_WHITELIST

    region = None  # name of the enclosing hot-path region, or None
    for idx, (raw_line, code_line) in enumerate(zip(raw, code), start=1):
        m = BEGIN_MARK.search(raw_line)
        if m:
            if region is not None:
                violations.append((rel, idx, "marker",
                                   "nested begin-hot-path"))
            region = m.group(1)
            continue
        if END_MARK.search(raw_line):
            if region is None:
                violations.append((rel, idx, "marker",
                                   "end-hot-path without begin"))
            region = None
            continue
        allowed = {a.group(1) for a in ALLOW.finditer(raw_line)}

        def report(rule, msg):
            if rule not in allowed:
                violations.append((rel, idx, rule, msg))

        if region is not None:
            if HOT_ALLOC.search(code_line):
                report("hot-path-alloc",
                       f"allocation in hot-path region '{region}'")
            if HOT_LOCK.search(code_line):
                report("hot-path-lock",
                       f"lock acquisition in hot-path region '{region}'")
            if HOT_STDFUNCTION.search(code_line):
                report("hot-path-stdfunction",
                       f"type-erased dispatch in hot-path region"
                       f" '{region}' (call the policy hooks / cost_expr"
                       f" evaluators, core/cost_expr.hpp)")
            if HOT_PARK.search(code_line):
                report("hot-path-park",
                       f"parking/blocking primitive in hot-path region"
                       f" '{region}' (block only at window-phase"
                       f" boundaries, outside the region)")
        if in_sim:
            if SIM_WALL_CLOCK.search(code_line):
                report("sim-wall-clock",
                       "wall-clock read in the deterministic simulator")
            if SIM_RAND.search(code_line):
                report("sim-ambient-rand",
                       "ambient randomness in the deterministic simulator"
                       " (use the seeded util/rng.hpp)")
        if in_net_exec and UNBOUNDED_WAIT.search(code_line):
            report("unbounded-wait",
                   "deadline-less blocking receive in fault-tolerant layer"
                   " (use the *_for bounded variants, or allow() with a"
                   " liveness argument)")
        if RELAXED.search(code_line) and not relaxed_ok:
            report("relaxed-whitelist",
                   "memory_order_relaxed outside the whitelist"
                   " (argue the ordering and add the file to"
                   " tools/daslint/daslint.py)")
    if region is not None:
        violations.append((rel, len(raw), "marker",
                           "unterminated begin-hot-path"))


def collect_files(root):
    files = []
    src = os.path.join(root, "src")
    for base, _dirs, names in os.walk(src):
        for name in sorted(names):
            if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                files.append(os.path.relpath(os.path.join(base, name), root))
    return sorted(files)


def run_lint(root):
    violations = []
    for rel in collect_files(root):
        lint_file(root, rel, violations)
    for rel, line, rule, msg in violations:
        print(f"{rel}:{line}: [{rule}] {msg}")
    return violations


def selftest(repo_root):
    corpus = os.path.join(repo_root, "tools", "daslint", "selftest")
    violations = run_lint(corpus)
    by_rule = {}
    for rel, _line, rule, _msg in violations:
        by_rule.setdefault(rule, set()).add(rel.replace(os.sep, "/"))
    expected = {
        "hot-path-alloc": "src/rt/hot_alloc_bad.cpp",
        "hot-path-lock": "src/rt/hot_lock_bad.cpp",
        "hot-path-stdfunction": "src/rt/hot_stdfunction_bad.cpp",
        "hot-path-park": "src/rt/hot_park_bad.cpp",
        "sim-wall-clock": "src/sim/wall_clock_bad.cpp",
        "sim-ambient-rand": "src/sim/rand_bad.cpp",
        "relaxed-whitelist": "src/util/relaxed_bad.cpp",
        "unbounded-wait": "src/net/unbounded_wait_bad.cpp",
    }
    ok = True
    for rule, planted in expected.items():
        if planted not in by_rule.get(rule, set()):
            print(f"selftest: rule '{rule}' did NOT fire on {planted}")
            ok = False
    clean = "src/rt/clean_ok.cpp"
    flagged_clean = [v for v in violations
                     if v[0].replace(os.sep, "/") == clean]
    if flagged_clean:
        print(f"selftest: false positives on {clean}: {flagged_clean}")
        ok = False
    print("selftest:", "PASS" if ok else "FAIL",
          f"({len(violations)} planted violations detected)")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.abspath(os.path.join(here, "..", ".."))
    if args.selftest:
        return selftest(repo_root)
    root = os.path.abspath(args.root) if args.root else repo_root
    violations = run_lint(root)
    if violations:
        print(f"daslint: {len(violations)} violation(s)")
        return 1
    print("daslint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
