#!/usr/bin/env python3
"""CI gate for the machine-readable benchmark artifacts.

Dispatches on the artifact's "schema" field:

mwr-bench-hot-paths-v2 (bench_hot_paths --json):
  the hot-path optimizations must still pay for themselves — the Fenwick
  sampler at least 5x over the linear scan, cached oracle probes at least
  3x over uncached, the full Table-II cycle at least 4x, the Slate cycle
  (Table II's own runs on random256 and unimodal256, BernoulliOracle
  rewards) at least 1.5x with the one-pass cap over the full walk — and
  absolute sampler cost must not regress more than 2x against the
  committed baseline.  The per-kernel rows (scalar vs runtime dispatch)
  carry no speedup floor: on a non-AVX2 runner both sides are the same
  code and the row legitimately reports ~1x.

Regardless of schema, per-metric percentage deltas against the baseline
are printed even when the gate passes, so drift is visible in CI logs
long before it trips a threshold.

mwr-bench-spmd-scale-v1 (bench_spmd_scale --json):
  the superstep engine must (a) produce bit-identical trajectories to
  thread-per-rank, (b) be at least 5x faster at the crossover population
  (2^10), (c) complete populations >= 4096 — the scale thread-per-rank
  cannot reach — and (d) not regress engine throughput at the crossover
  more than 3x against the committed baseline.

mwr-bench-transport-v1 (bench_transport --json):
  every Comm backend (in-process mailbox, UDS) must clear an
  absolute throughput floor and a p99 round-trip-latency ceiling, and must
  not regress more than 5x in either metric against the committed baseline
  (process forking on shared CI runners is noisy, hence the allowance).

mwr-bench-serve-v2 (bench_serve --json):
  the campaign server must complete every admitted campaign (completed ==
  campaigns), never starve one (starved_epochs == 0), reproduce the
  uninterrupted trajectories after a checkpoint/kill/restore cycle
  (resume_ok), record the deliberate overflow submissions as admission
  rejects, clear an absolute campaigns/sec floor and a p99 probe-latency
  ceiling, and not regress throughput more than 5x against the committed
  baseline.  The identity bits (resume_ok, starvation, completion) are
  measured within one run, so they gate hard regardless of runner speed.
  v2 adds per-epoch latency percentiles (fairness.epoch_p50_us /
  epoch_p99_us) and the async-checkpoint wall-time split
  (checkpoint.critical_path_us on the epoch path vs writer_us on the
  writer thread) — validated for shape, reported as deltas, not gated
  (pure timing, too runner-dependent for thresholds).

Speedup floors and the bit-identity bit are measured within one run, so
they are immune to runner-speed variance; only the absolute-regression
checks compare across machines, hence their generous allowances.

Every row is evaluated and every failure printed before the gate exits
non-zero, so one failing row does not hide the others.  A malformed
artifact (a missing section or a non-numeric field) is reported field by
field the same way, and no row is gated on it.

Usage: check_bench.py <current.json> <baseline.json>
"""
import json
import sys

HOT_PATHS_SCHEMA = "mwr-bench-hot-paths-v2"
SPMD_SCALE_SCHEMA = "mwr-bench-spmd-scale-v1"

HOT_PATHS_SECTIONS = [
    "sampler",
    "oracle",
    "table2_cycle",
    "slate_cycle",
    "kernel_update",
    "kernel_normalize",
    "kernel_materialize",
]
HOT_PATHS_SPEEDUP_FLOORS = {
    "sampler": 5.0,       # Fenwick draw vs linear scan at k = 2^14
    "oracle": 3.0,        # cached vs uncached phase-2 probe
    "table2_cycle": 4.0,  # full SoA-kernel cycle (n draws + fused update)
    "slate_cycle": 1.5,   # one-pass cap vs full walk over Table II's cycles;
                          # 2.7-3.0x measured, 2.2x under MWR_FORCE_SCALAR=1
    # kernel_* rows: no floor — scalar == dispatched on non-AVX2 runners.
}
# Absolute ns-per-op may regress at most this factor vs the committed
# baseline (cross-machine comparison, so deliberately loose).
HOT_PATHS_MAX_ABS_REGRESSION = 2.0
HOT_PATHS_REGRESSION_CHECKED = ["sampler"]

SPMD_SPEEDUP_FLOOR = 5.0        # engine vs thread-per-rank at 2^10
SPMD_MIN_LARGE_POPULATION = 4096  # engine must complete at least this
SPMD_MAX_ABS_REGRESSION = 3.0   # throughput, cross-machine, loose

TRANSPORT_SCHEMA = "mwr-bench-transport-v1"
TRANSPORT_SECTIONS = ["in_process", "uds"]
# Absolute floors/ceilings: an order of magnitude under the measured
# numbers on the slowest CI runner, so they catch pathological regressions
# (a backend falling back to sleeps, a per-message allocation storm)
# without flaking on machine variance.
TRANSPORT_MIN_MSGS_PER_SEC = 50_000.0
TRANSPORT_MAX_P99_LATENCY_US = 20_000.0
TRANSPORT_MAX_ABS_REGRESSION = 5.0  # vs baseline, either metric

SERVE_SCHEMA = "mwr-bench-serve-v2"
# An order of magnitude under the slowest expected runner, like the
# transport floors: catches the server degenerating to one campaign per
# epoch-sweep without flaking on machine variance.
SERVE_MIN_CAMPAIGNS_PER_SEC = 20.0
SERVE_MAX_P99_PROBE_US = 10_000.0
SERVE_MAX_ABS_REGRESSION = 5.0  # campaigns/sec vs baseline, cross-machine


FAILURES = []


def fail(message):
    """Fatal: the gate cannot go on (bad usage, unreadable artifact)."""
    print(f"bench gate: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def flag(message):
    """Records one failed row or field; the gate exits non-zero once every
    row has been evaluated."""
    print(f"bench gate: FAIL: {message}", file=sys.stderr)
    FAILURES.append(message)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")


def report_deltas(current, baseline):
    """Prints per-metric percentage deltas vs the baseline, pass or fail.

    Walks every shared top-level section dict and compares numeric fields.
    Checksums and the params block are identity/config, not measurements,
    so they are skipped.
    """
    for name in current:
        if name in ("schema", "params"):
            continue
        cur, base = current.get(name), baseline.get(name)
        if not isinstance(cur, dict) or not isinstance(base, dict):
            continue
        parts = []
        for field, now in cur.items():
            then = base.get(field)
            if field == "checksum" or isinstance(now, bool):
                continue
            if not isinstance(now, (int, float)):
                continue
            if not isinstance(then, (int, float)) or then == 0:
                continue
            delta = (now - then) / then * 100.0
            parts.append(f"{field} {now:g} ({delta:+.1f}%)")
        if parts:
            print(f"bench delta: {name}: " + ", ".join(parts))


def validate_hot_paths(path, doc):
    for name in HOT_PATHS_SECTIONS:
        section = doc.get(name)
        if not isinstance(section, dict):
            flag(f"{path}: missing section {name}")
            continue
        for field in ("before_ns_per_op", "after_ns_per_op", "speedup"):
            value = section.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                flag(f"{path}: {name}.{field} is {value!r}, expected > 0")


def check_hot_paths(current, baseline):
    for name, floor in HOT_PATHS_SPEEDUP_FLOORS.items():
        speedup = current[name]["speedup"]
        if speedup < floor:
            flag(f"{name} speedup {speedup:.2f}x is below the {floor}x floor")

    for name in HOT_PATHS_REGRESSION_CHECKED:
        now = current[name]["after_ns_per_op"]
        then = baseline[name]["after_ns_per_op"]
        if now > then * HOT_PATHS_MAX_ABS_REGRESSION:
            flag(
                f"{name} ns-per-op regressed: {now:.1f} vs baseline "
                f"{then:.1f} (allowed {HOT_PATHS_MAX_ABS_REGRESSION}x)"
            )

    if FAILURES:
        return
    print(
        "bench gate: OK ("
        + ", ".join(
            f"{name} {current[name]['speedup']:.2f}x"
            for name in HOT_PATHS_SECTIONS
        )
        + ")"
    )


def validate_spmd_scale(path, doc):
    if not isinstance(doc.get("bit_identical"), bool):
        flag(f"{path}: bit_identical missing or not a bool")
    speedup = doc.get("speedup_at_crossover")
    if not isinstance(speedup, (int, float)) or speedup <= 0:
        flag(f"{path}: speedup_at_crossover is {speedup!r}, expected > 0")
    scale = doc.get("scale")
    if not isinstance(scale, list) or not scale:
        flag(f"{path}: scale missing or empty")
        return
    for point in scale:
        population = point.get("population")
        throughput = point.get("engine_ranks_per_sec")
        if not isinstance(population, int) or population <= 0:
            flag(f"{path}: scale point population is {population!r}")
        if not isinstance(throughput, (int, float)) or throughput <= 0:
            flag(
                f"{path}: engine_ranks_per_sec at population "
                f"{population} is {throughput!r}, expected > 0"
            )


def crossover_throughput(doc):
    crossover = doc.get("params", {}).get("crossover_population")
    for point in doc["scale"]:
        if point["population"] == crossover:
            return point["engine_ranks_per_sec"]
    flag(f"no scale point at the crossover population {crossover!r}")
    return None


def check_spmd_scale(current, baseline):
    if not current["bit_identical"]:
        flag("engine trajectories are not bit-identical to thread-per-rank")

    speedup = current["speedup_at_crossover"]
    if speedup < SPMD_SPEEDUP_FLOOR:
        flag(
            f"engine speedup at crossover {speedup:.2f}x is below the "
            f"{SPMD_SPEEDUP_FLOOR}x floor"
        )

    largest = max(p["population"] for p in current["scale"])
    if largest < SPMD_MIN_LARGE_POPULATION:
        flag(
            f"largest engine population {largest} is below "
            f"{SPMD_MIN_LARGE_POPULATION}"
        )

    now = crossover_throughput(current)
    then = crossover_throughput(baseline)
    if now is None or then is None:
        return
    if now * SPMD_MAX_ABS_REGRESSION < then:
        flag(
            f"engine throughput at crossover regressed: {now:.0f} ranks/s "
            f"vs baseline {then:.0f} (allowed {SPMD_MAX_ABS_REGRESSION}x)"
        )

    if FAILURES:
        return
    print(
        f"bench gate: OK (bit-identical, {speedup:.2f}x at crossover, "
        f"population up to {largest}, {now:.0f} ranks/s)"
    )


def validate_transport(path, doc):
    for name in TRANSPORT_SECTIONS:
        section = doc.get(name)
        if not isinstance(section, dict):
            flag(f"{path}: missing section {name}")
            continue
        for field in ("msgs_per_sec", "p99_latency_us"):
            value = section.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                flag(f"{path}: {name}.{field} is {value!r}, expected > 0")


def check_transport(current, baseline):
    for name in TRANSPORT_SECTIONS:
        throughput = current[name]["msgs_per_sec"]
        latency = current[name]["p99_latency_us"]
        if throughput < TRANSPORT_MIN_MSGS_PER_SEC:
            flag(
                f"{name} throughput {throughput:.0f} msgs/s is below the "
                f"{TRANSPORT_MIN_MSGS_PER_SEC:.0f} floor"
            )
        if latency > TRANSPORT_MAX_P99_LATENCY_US:
            flag(
                f"{name} p99 latency {latency:.1f} us exceeds the "
                f"{TRANSPORT_MAX_P99_LATENCY_US:.0f} us ceiling"
            )
        base_throughput = baseline[name]["msgs_per_sec"]
        base_latency = baseline[name]["p99_latency_us"]
        if throughput * TRANSPORT_MAX_ABS_REGRESSION < base_throughput:
            flag(
                f"{name} throughput regressed: {throughput:.0f} msgs/s vs "
                f"baseline {base_throughput:.0f} "
                f"(allowed {TRANSPORT_MAX_ABS_REGRESSION}x)"
            )
        if latency > base_latency * TRANSPORT_MAX_ABS_REGRESSION:
            flag(
                f"{name} p99 latency regressed: {latency:.1f} us vs "
                f"baseline {base_latency:.1f} "
                f"(allowed {TRANSPORT_MAX_ABS_REGRESSION}x)"
            )

    if FAILURES:
        return
    print(
        "bench gate: OK ("
        + ", ".join(
            f"{name} {current[name]['msgs_per_sec'] / 1e6:.2f}M msgs/s "
            f"p99 {current[name]['p99_latency_us']:.1f}us"
            for name in TRANSPORT_SECTIONS
        )
        + ")"
    )


SERVE_NUMERIC_FIELDS = {
    # section -> field -> minimum allowed value (structural validation;
    # the behavioral gates live in check_serve).
    "load": {
        "campaigns": 1,
        "completed": 0,
        "families": 4,
        "campaigns_per_sec": 0,
        "admission_rejects": 0,
    },
    "probes": {"count": 1, "p50_us": 0, "p99_us": 0},
    "checkpoint": {"total_bytes": 1, "critical_path_us": 0, "writer_us": 0},
    "fairness": {
        "epochs": 1,
        "epoch_p50_us": 0,
        "epoch_p99_us": 0,
        "starved_epochs": 0,
    },
}


def validate_serve(path, doc):
    for name, fields in SERVE_NUMERIC_FIELDS.items():
        section = doc.get(name)
        if not isinstance(section, dict):
            flag(f"{path}: missing section {name}")
            continue
        for field, minimum in fields.items():
            value = section.get(field)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                flag(f"{path}: {name}.{field} is {value!r}, expected a number")
            elif value < minimum:
                flag(f"{path}: {name}.{field} is {value!r}, expected >= {minimum}")
    checkpoint = doc.get("checkpoint")
    if isinstance(checkpoint, dict) and not isinstance(
        checkpoint.get("resume_ok"), bool
    ):
        flag(f"{path}: checkpoint.resume_ok missing or not a bool")


def check_serve(current, baseline):
    load = current["load"]
    if load["completed"] != load["campaigns"]:
        flag(
            f"only {load['completed']} of {load['campaigns']} admitted "
            f"campaigns completed"
        )
    if current["fairness"]["starved_epochs"] != 0:
        flag(
            f"{current['fairness']['starved_epochs']} starved campaign-epochs "
            f"(DRR must starve no one)"
        )
    if not current["checkpoint"]["resume_ok"]:
        flag("checkpoint/kill/restore cycle did not reproduce the trajectories")
    if load["admission_rejects"] < 1:
        flag("overflow submissions were not rejected (admission control dead)")

    throughput = load["campaigns_per_sec"]
    if throughput < SERVE_MIN_CAMPAIGNS_PER_SEC:
        flag(
            f"throughput {throughput:.1f} campaigns/s is below the "
            f"{SERVE_MIN_CAMPAIGNS_PER_SEC:.0f} floor"
        )
    p99 = current["probes"]["p99_us"]
    if p99 > SERVE_MAX_P99_PROBE_US:
        flag(
            f"p99 probe latency {p99:.1f} us exceeds the "
            f"{SERVE_MAX_P99_PROBE_US:.0f} us ceiling"
        )
    base_throughput = baseline["load"]["campaigns_per_sec"]
    if throughput * SERVE_MAX_ABS_REGRESSION < base_throughput:
        flag(
            f"throughput regressed: {throughput:.1f} campaigns/s vs baseline "
            f"{base_throughput:.1f} (allowed {SERVE_MAX_ABS_REGRESSION}x)"
        )

    if FAILURES:
        return
    print(
        f"bench gate: OK ({load['campaigns']} campaigns "
        f"{throughput:.1f}/s, probe p99 {p99:.1f}us, "
        f"{current['checkpoint']['total_bytes']} checkpoint bytes, "
        f"resume bit-identical, 0 starved)"
    )


CHECKERS = {
    HOT_PATHS_SCHEMA: (validate_hot_paths, check_hot_paths),
    SPMD_SCALE_SCHEMA: (validate_spmd_scale, check_spmd_scale),
    TRANSPORT_SCHEMA: (validate_transport, check_transport),
    SERVE_SCHEMA: (validate_serve, check_serve),
}


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} <current.json> <baseline.json>")
    current = load(sys.argv[1])
    baseline = load(sys.argv[2])

    schema = current.get("schema")
    if schema not in CHECKERS:
        fail(f"{sys.argv[1]}: unexpected schema {schema!r}")
    if baseline.get("schema") != schema:
        fail(
            f"{sys.argv[2]}: baseline schema {baseline.get('schema')!r} "
            f"does not match {schema!r}"
        )

    validate, check = CHECKERS[schema]
    validate(sys.argv[1], current)
    validate(sys.argv[2], baseline)
    report_deltas(current, baseline)
    if not FAILURES:
        check(current, baseline)
    if FAILURES:
        print(f"bench gate: {len(FAILURES)} failure(s)", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
