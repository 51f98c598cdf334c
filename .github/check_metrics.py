#!/usr/bin/env python3
"""CI gate for the observability artifact.

Validates the JSON snapshot a smoke campaign wrote via --metrics-out:
it must parse, carry the expected schema, and contain the paper-facing
quantities (cycle count, probe count, per-phase wall-time histograms,
convergence status) with sane values.  Exits nonzero on any violation so
the pipeline fails when instrumentation regresses.

Usage: check_metrics.py <metrics.json>
"""
import json
import sys

REQUIRED_COUNTERS = [
    "repair.online.cycles",       # Table II: update cycles
    "repair.online.probes",       # Table IV: oracle probes
    "pool.candidates_tried",      # phase-1 precompute volume
    "campaign.bugs_attempted",
    "spmd.engine.sweeps",         # the smoke fanned out over the engine
    "oracle.interference_graph_builds",  # pair hashes, once per campaign
    "oracle.wave_builds",         # every bug probes through a wave table
]
REQUIRED_HISTOGRAMS = [
    "phase.precompute.seconds",   # per-phase wall time
    "phase.online.seconds",
    "repair.online.cycle_seconds",
]
REQUIRED_GAUGES = [
    "campaign.converged",         # convergence status
    "repair.repaired",
]


def fail(message):
    print(f"metrics gate: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} <metrics.json>")
    try:
        with open(sys.argv[1]) as f:
            snapshot = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {sys.argv[1]}: {e}")

    if snapshot.get("schema") != "mwr-metrics-v1":
        fail(f"unexpected schema: {snapshot.get('schema')!r}")

    counters = snapshot.get("counters", {})
    for name in REQUIRED_COUNTERS:
        if name not in counters:
            fail(f"missing counter {name}")
        if counters[name] <= 0:
            fail(f"counter {name} is {counters[name]}, expected > 0")

    gauges = snapshot.get("gauges", {})
    for name in REQUIRED_GAUGES:
        if name not in gauges:
            fail(f"missing gauge {name}")

    histograms = snapshot.get("histograms", {})
    for name in REQUIRED_HISTOGRAMS:
        h = histograms.get(name)
        if h is None:
            fail(f"missing histogram {name}")
        if h.get("count", 0) <= 0:
            fail(f"histogram {name} has no observations")
        if len(h.get("counts", [])) != len(h.get("le", [])) + 1:
            fail(f"histogram {name} bucket layout is inconsistent")
        if sum(h["counts"]) != h["count"]:
            fail(f"histogram {name} bucket counts do not sum to count")

    # The smoke is one campaign: all of its bugs share one interference
    # graph, so a second build means a bug re-hashed the pool's pairs.
    if counters["oracle.interference_graph_builds"] != 1:
        fail("campaign built "
             f"{counters['oracle.interference_graph_builds']} interference "
             "graphs, expected 1")

    # Every multi-member probe of a campaign evaluates through its bug's
    # wave table; a hashed pair means a phase-2 probe fell off the wave.
    if "oracle.pair_cache_misses" not in counters:
        fail("missing counter oracle.pair_cache_misses")
    if counters["oracle.pair_cache_misses"] != 0:
        fail(f"{counters['oracle.pair_cache_misses']} safe pairs were "
             "hashed, expected 0 (every pooled probe through the wave)")

    # A single-shot campaign draws its pool and every bug's oracle from
    # one hub: one phase-1 build, and no oracle built without a wave.
    for name, expected in (("serve.hub.pool_builds", 1),
                           ("serve.hub.oracle_cold_builds", 0)):
        if name not in counters:
            fail(f"missing counter {name}")
        if counters[name] != expected:
            fail(f"counter {name} is {counters[name]}, expected {expected}")

    if gauges["campaign.converged"] != 1.0:
        fail("smoke campaign did not converge (campaign.converged != 1)")

    print(
        "metrics gate: OK "
        f"(cycles={counters['repair.online.cycles']}, "
        f"probes={counters['repair.online.probes']}, "
        f"converged={gauges['campaign.converged']})"
    )


if __name__ == "__main__":
    main()
