#!/usr/bin/env python3
"""CI gate for the gated micro-bench artifacts.

bench_hot_paths, bench_spmd_scale, bench_transport and bench_serve each
write --json in one layout (bench/bench_common.hpp's write_bench_json):

  {"schema": "mwr-bench-v3", "bench": "<bench>", "params": {...},
   "metrics": {"<dotted name>": number | bool, ...}}

BOUNDS holds every gate as one row, in one of four kinds:

  true        the metric must be true (a bit-identity pin);
  min, max    an absolute floor or ceiling;
  regression  the metric may be at most `limit` times worse than the
              committed baseline's, in its better direction.

The identity bits and the speedup floors are measured within one run, so
they are immune to runner-speed variance; only the regression rows
compare across machines, hence their generous factors.  The absolute
floors and ceilings sit an order of magnitude beyond the numbers measured
on the slowest runner: they catch pathological regressions (a backend
falling back to sleeps, a server degenerating to one campaign per sweep)
without flaking on machine variance.

Both files must carry every gated metric with its row's type: a bool for
a `true` row, a finite number otherwise, and a positive one for a
regression row (a ratio against zero says nothing).  A malformed file is
reported metric by metric and no row is evaluated on it.  Otherwise every
row is evaluated and every failure printed before the gate exits
non-zero, so one failing row does not hide the others.  Percentage deltas
of every shared numeric metric against the baseline are printed pass or
fail, so drift shows in CI logs long before it trips a bound.

Usage: check_bench.py <current.json> <baseline.json>
"""
import json
import math
import sys
from collections import namedtuple

SCHEMA = "mwr-bench-v3"

Bound = namedtuple("Bound", "metric kind limit better", defaults=(None, None))

BOUNDS = {
    "bench_hot_paths": [
        # Fenwick draw vs linear scan at k = 2^14.
        Bound("sampler.speedup", "min", 5),
        # Cached vs uncached phase-2 probe.
        Bound("oracle.speedup", "min", 3),
        # Full SoA-kernel Standard cycle (n draws + fused update).
        Bound("table2_cycle.speedup", "min", 4),
        # One-pass cap vs full walk over Table II's Slate cycles; 2.7-3.0x
        # measured, 2.2x under MWR_FORCE_SCALAR=1.
        Bound("slate_cycle.speedup", "min", 1.5),
        # The kernel_* rows carry no floor: on a non-AVX2 runner scalar and
        # dispatched are the same code and the row reports ~1x.
        Bound("sampler.after_ns_per_op", "regression", 2, "lower"),
    ],
    "bench_spmd_scale": [
        Bound("bit_identical", "true"),  # engine vs thread-per-rank
        Bound("speedup_at_crossover", "min", 5),  # at 2^10 ranks
        # The scale thread-per-rank cannot reach.
        Bound("largest_population", "min", 4096),
        Bound("engine_ranks_per_sec_at_crossover", "regression", 3, "higher"),
    ],
    "bench_transport": [
        row
        for backend in ("in_process", "uds")
        for row in (
            Bound(f"{backend}.msgs_per_sec", "min", 50_000),
            Bound(f"{backend}.p99_latency_us", "max", 20_000),
            # Process forking on shared runners is noisy.
            Bound(f"{backend}.msgs_per_sec", "regression", 5, "higher"),
            Bound(f"{backend}.p99_latency_us", "regression", 5, "lower"),
        )
    ],
    "bench_serve": [
        Bound("unfinished_campaigns", "max", 0),  # completed == admitted
        Bound("fairness.starved_epochs", "max", 0),  # DRR starves no one
        # The checkpoint/kill/restore cycle reproduces the trajectories.
        Bound("checkpoint.resume_ok", "true"),
        # The deliberate overflow submissions hit admission control.
        Bound("load.admission_rejects", "min", 1),
        Bound("load.campaigns_per_sec", "min", 20),
        Bound("probes.p99_us", "max", 10_000),
        Bound("load.campaigns_per_sec", "regression", 5, "higher"),
    ],
}


def label(bound):
    """The row's name, as failures and the self-test spell it."""
    if bound.kind == "true":
        return f"{bound.metric} is true"
    if bound.kind == "min":
        return f"{bound.metric} >= {bound.limit}"
    if bound.kind == "max":
        return f"{bound.metric} <= {bound.limit}"
    return (
        f"{bound.metric} within {bound.limit}x of baseline "
        f"({bound.better} is better)"
    )


def violated(bound, now, then):
    if bound.kind == "true":
        return now is not True
    if bound.kind == "min":
        return now < bound.limit
    if bound.kind == "max":
        return now > bound.limit
    if bound.better == "higher":
        return now * bound.limit < then
    return now > then * bound.limit


def show(value):
    return json.dumps(value) if isinstance(value, bool) else f"{value:g}"


def is_number(value):
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def malformed(path, doc, bounds):
    """One message per gated metric `doc` lacks or mistypes."""
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return [f"{path}: metrics missing or not an object"]
    problems = {}
    for bound in bounds:
        value = metrics.get(bound.metric)
        if bound.kind == "true":
            ok, expected = isinstance(value, bool), "a bool"
        elif bound.kind == "regression":
            ok, expected = is_number(value) and value > 0, "a positive number"
        else:
            ok, expected = is_number(value), "a number"
        if not ok:
            problems.setdefault(
                bound.metric,
                f"{path}: malformed: {bound.metric} is {value!r}, "
                f"expected {expected}",
            )
    return list(problems.values())


def report_deltas(current, baseline):
    """Prints every shared numeric metric's drift, grouped by prefix."""
    groups = {}
    for name, now in current.items():
        then = baseline.get(name)
        if name.endswith("checksum") or not is_number(now):
            continue
        if not is_number(then) or then == 0:
            continue
        group, _, field = name.rpartition(".")
        groups.setdefault(group and group + ": ", []).append(
            f"{field} {now:g} ({(now - then) / then * 100.0:+.1f}%)"
        )
    for group, parts in groups.items():
        print(f"bench delta: {group}" + ", ".join(parts))


def fail(message):
    """Fatal: the gate cannot go on (bad usage, unreadable artifact)."""
    print(f"bench gate: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: not a JSON object")
    return doc


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} <current.json> <baseline.json>")
    current_path, baseline_path = sys.argv[1:]
    current, baseline = load(current_path), load(baseline_path)

    bench = current.get("bench")
    if current.get("schema") != SCHEMA or bench not in BOUNDS:
        fail(
            f"{current_path}: schema {current.get('schema')!r} bench "
            f"{bench!r} is not a gated {SCHEMA} artifact"
        )
    if baseline.get("schema") != SCHEMA or baseline.get("bench") != bench:
        fail(
            f"{baseline_path}: schema {baseline.get('schema')!r} bench "
            f"{baseline.get('bench')!r} does not match {SCHEMA} {bench!r}"
        )

    bounds = BOUNDS[bench]
    failures = malformed(current_path, current, bounds) + malformed(
        baseline_path, baseline, bounds
    )
    if not failures:
        now, then = current["metrics"], baseline["metrics"]
        report_deltas(now, then)
        for bound in bounds:
            if violated(bound, now[bound.metric], then[bound.metric]):
                reference = (
                    f" vs baseline {show(then[bound.metric])}"
                    if bound.kind == "regression"
                    else ""
                )
                failures.append(
                    f"{bench}: {label(bound)}: got {show(now[bound.metric])}"
                    f"{reference}"
                )
    for message in failures:
        print(f"bench gate: FAIL: {message}", file=sys.stderr)
    if failures:
        print(f"bench gate: {len(failures)} failure(s)", file=sys.stderr)
        sys.exit(1)
    gated = dict.fromkeys(bound.metric for bound in bounds)
    print(
        f"bench gate: OK ({bench}: "
        + ", ".join(f"{name} {show(now[name])}" for name in gated)
        + ")"
    )


if __name__ == "__main__":
    main()
