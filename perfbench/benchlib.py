"""Reduction and comparison rules of the perfbench benchmark.

The C++ program (perfbench/src) only measures: it prints named sample lists
and single values. This module turns them into the reported metrics, and
holds the rules the reports and the steadiness tool share:

* medians of sample lists (of batch minima for setup_s);
* nearest-rank percentiles, printed only when at least ten samples lie
  beyond them;
* a layer's self time: its spans' durations minus the part covered by their
  child spans;
* metric names of the form ``[A-Za-z0-9_.-]+``;
* the regression-bound comparison between two medians.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MIN_BEYOND = 10  # samples that must lie beyond a printed percentile
TRACED_PREFIX = "traced."
SETUP_BATCH = 5  # consecutive set-ups per batch minimum (setup_s)


def valid_name(name):
    """True for a metric or workload name the report may print."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def median(values):
    return statistics.median(values)


def batch_min_median(values, k):
    """Median over consecutive batches of k samples of each batch's minimum;
    a trailing partial batch counts only when it is the only one.

    setup_s is reduced this way: a set-up of a few milliseconds or less is
    mostly allocation, thread start and wake-up, and on a shared host the
    plain median of such times moved by 20-30% between sets of runs with
    other tenants' load. The fastest of a few consecutive set-ups is closer
    to the code's own cost."""
    mins = [min(values[i:i + k]) for i in range(0, len(values) - k + 1, k)]
    return median(mins or [min(values)])


def nearest_rank_index(n, q):
    """0-based index of the nearest-rank q-th percentile of n samples."""
    if n < 1 or not 0 < q <= 100:
        raise ValueError("need n >= 1 and 0 < q <= 100")
    return max(1, math.ceil(q / 100.0 * n)) - 1


def samples_beyond(n, q):
    """How many of n sorted samples lie above the nearest-rank q-th one."""
    return n - 1 - nearest_rank_index(n, q)


def percentile(values, q):
    """Nearest-rank percentile, or None when fewer than MIN_BEYOND samples
    lie beyond it (the percentile is then not printed)."""
    n = len(values)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND:
        return None
    return sorted(values)[nearest_rank_index(n, q)]


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def regressed(parent_median, new_median, bound, better):
    """True when new_median is worse than parent_median by more than
    `bound` (a share of the parent's median) in the `better` direction."""
    if better == "lower":
        return new_median > parent_median * (1.0 + bound)
    if better == "higher":
        return new_median < parent_median * (1.0 - bound)
    raise ValueError("better must be 'lower' or 'higher'")


def load_chrome_trace(path):
    """Spans of a Chrome trace written by perfbench: dicts with id, parent,
    name, start and end (seconds)."""
    with open(path) as f:
        doc = json.load(f)
    spans = []
    for ev in doc["traceEvents"]:
        start = ev["ts"] * 1e-6
        spans.append({"id": ev["args"]["id"], "parent": ev["args"]["parent"],
                      "name": ev["name"], "start": start,
                      "end": start + ev["dur"] * 1e-6})
    return spans


def layer_of(name):
    return name.split(".", 1)[0]


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Self seconds per layer: each span's duration minus the part of its
    interval its direct children cover, summed by the name's first part."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        own = s["end"] - s["start"] - covered(children.get(s["id"], []),
                                              s["start"], s["end"])
        layer = layer_of(s["name"])
        out[layer] = out.get(layer, 0.0) + own
    return out


def trace_overhead(untraced, traced):
    """1 - the median ratio of traced to untraced rate over adjacent passes.

    A traced run alternates untraced and traced passes, so the i-th sample
    of each list come from neighbouring passes under the same host load."""
    ratios = [t / u for u, t in zip(untraced, traced)]
    return 1.0 - median(ratios), len(ratios)


def reduce_raw(raw, spans=None):
    """Metrics of one run: {name: {"value", "unit", "n"}}.

    Sample lists become medians (setup_s: batch_min_median), or the
    percentiles they declare; values pass through; a traced run adds bench.trace_overhead_frac (traced against
    untraced tasks_per_s, trace_overhead) and, from its spans, each layer's
    share of the traced wall time (<layer>.self_frac)."""
    out = {}
    series = raw["series"]
    for name, s in series.items():
        xs = s["samples"]
        if name.startswith(TRACED_PREFIX) or not xs:
            continue
        if "percentiles" in s:
            for q, metric in s["percentiles"].items():
                v = percentile(xs, float(q))
                if v is not None:
                    out[metric] = {"value": v, "unit": s["unit"], "n": len(xs)}
        elif name == "setup_s":
            out[name] = {"value": batch_min_median(xs, SETUP_BATCH),
                         "unit": s["unit"], "n": len(xs)}
        else:
            out[name] = {"value": median(xs), "unit": s["unit"], "n": len(xs)}
    for name, v in raw["values"].items():
        out[name] = {"value": v["value"], "unit": v["unit"], "n": 1}
    traced = series.get(TRACED_PREFIX + "tasks_per_s", {}).get("samples")
    untraced = series.get("tasks_per_s", {}).get("samples")
    if traced and untraced:
        frac, n = trace_overhead(untraced, traced)
        out["bench.trace_overhead_frac"] = {"value": frac, "unit": "ratio",
                                            "n": n}
    if spans:
        roots = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
        for layer, t in self_times(spans).items():
            out[layer + ".self_frac"] = {"value": t / roots, "unit": "ratio",
                                         "n": len(spans)}
    if raw["attempted"] > 0:
        out["failed_frac"] = {"value": raw["failed"] / raw["attempted"],
                              "unit": "ratio", "n": raw["attempted"]}
    return out
