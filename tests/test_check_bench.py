#!/usr/bin/env python3
"""Self-tests for .github/check_bench.py against the committed baselines.

Each baseline must pass against itself; for every row of the bound table a
copy of the baseline moved just past that row's bound must fail and name
the row; a missing or mistyped gated metric must fail as malformed.

Run directly or via ctest (check_bench_selftest).
"""

import copy
import importlib.util
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / ".github" / "check_bench.py"
BASELINES = {
    "bench_hot_paths": "BENCH_hot_paths.baseline.json",
    "bench_spmd_scale": "BENCH_spmd_scale.baseline.json",
    "bench_transport": "BENCH_transport.baseline.json",
    "bench_serve": "BENCH_serve.baseline.json",
}

# Every gate, pinned: dropping or loosening a row must show up here too.
ROWS = {
    "bench_hot_paths": [
        "sampler.speedup >= 5",
        "oracle.speedup >= 3",
        "table2_cycle.speedup >= 4",
        "slate_cycle.speedup >= 1.5",
        "sampler.after_ns_per_op within 2x of baseline (lower is better)",
    ],
    "bench_spmd_scale": [
        "bit_identical is true",
        "speedup_at_crossover >= 5",
        "largest_population >= 4096",
        "engine_ranks_per_sec_at_crossover within 3x of baseline "
        "(higher is better)",
    ],
    "bench_transport": [
        row
        for backend in ("in_process", "uds")
        for row in (
            f"{backend}.msgs_per_sec >= 50000",
            f"{backend}.p99_latency_us <= 20000",
            f"{backend}.msgs_per_sec within 5x of baseline (higher is better)",
            f"{backend}.p99_latency_us within 5x of baseline (lower is better)",
        )
    ],
    "bench_serve": [
        "unfinished_campaigns <= 0",
        "fairness.starved_epochs <= 0",
        "checkpoint.resume_ok is true",
        "load.admission_rejects >= 1",
        "load.campaigns_per_sec >= 20",
        "probes.p99_us <= 10000",
        "load.campaigns_per_sec within 5x of baseline (higher is better)",
    ],
}

_spec = importlib.util.spec_from_file_location("check_bench", CHECKER)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def baseline(bench):
    with open(REPO_ROOT / "bench" / BASELINES[bench]) as f:
        return json.load(f)


def past(bound, then):
    """A value just on the failing side of `bound` (`then`: baseline)."""
    eps = 1e-6
    if bound.kind == "true":
        return False
    if bound.kind == "min":
        return bound.limit - max(abs(bound.limit), 1) * eps
    if bound.kind == "max":
        return bound.limit + max(abs(bound.limit), 1) * eps
    if bound.better == "higher":
        return then / bound.limit * (1 - eps)
    return then * bound.limit * (1 + eps)


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def gate(self, current, base):
        paths = []
        for name, doc in (("current", current), ("baseline", base)):
            path = Path(self.tmp.name) / f"{name}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        return subprocess.run(
            [sys.executable, str(CHECKER), *paths],
            capture_output=True,
            text=True,
        )

    def test_table_holds_exactly_the_pinned_rows(self):
        self.assertEqual(set(check_bench.BOUNDS), set(BASELINES))
        for bench, bounds in check_bench.BOUNDS.items():
            self.assertEqual(
                [check_bench.label(bound) for bound in bounds], ROWS[bench]
            )

    def test_each_baseline_passes_against_itself(self):
        for bench in BASELINES:
            with self.subTest(bench=bench):
                doc = baseline(bench)
                self.assertEqual(doc["schema"], check_bench.SCHEMA)
                self.assertEqual(doc["bench"], bench)
                result = self.gate(doc, doc)
                self.assertEqual(result.returncode, 0, result.stderr)
                self.assertIn("bench gate: OK", result.stdout)

    def test_every_row_fails_just_past_its_bound_and_names_itself(self):
        for bench, bounds in check_bench.BOUNDS.items():
            base = baseline(bench)
            for bound in bounds:
                row = check_bench.label(bound)
                with self.subTest(bench=bench, row=row):
                    current = copy.deepcopy(base)
                    metrics = current["metrics"]
                    metrics[bound.metric] = past(
                        bound, base["metrics"][bound.metric]
                    )
                    result = self.gate(current, base)
                    self.assertEqual(result.returncode, 1, result.stdout)
                    self.assertIn(f"FAIL: {bench}: {row}: got", result.stderr)

    def test_a_value_exactly_at_a_floor_or_ceiling_passes(self):
        for bench, bounds in check_bench.BOUNDS.items():
            base = baseline(bench)
            for bound in bounds:
                if bound.kind not in ("min", "max"):
                    continue
                with self.subTest(bench=bench, row=check_bench.label(bound)):
                    current = copy.deepcopy(base)
                    current["metrics"][bound.metric] = bound.limit
                    result = self.gate(current, base)
                    self.assertNotIn(check_bench.label(bound), result.stderr)

    def test_missing_or_non_numeric_gated_metric_is_malformed(self):
        for bench, bounds in check_bench.BOUNDS.items():
            base = baseline(bench)
            for bound in bounds:
                wrong = "yes" if bound.kind == "true" else "12"
                for value in (None, wrong):
                    with self.subTest(bench=bench, metric=bound.metric,
                                      value=value):
                        current = copy.deepcopy(base)
                        if value is None:
                            del current["metrics"][bound.metric]
                        else:
                            current["metrics"][bound.metric] = value
                        result = self.gate(current, base)
                        self.assertEqual(result.returncode, 1)
                        self.assertIn(
                            f"malformed: {bound.metric} is", result.stderr
                        )
                        # No row is evaluated on a malformed artifact.
                        self.assertNotIn(f"FAIL: {bench}:", result.stderr)

    def test_malformed_baseline_is_reported_too(self):
        base = baseline("bench_transport")
        broken = copy.deepcopy(base)
        broken["metrics"]["uds.msgs_per_sec"] = 0
        result = self.gate(base, broken)
        self.assertEqual(result.returncode, 1)
        self.assertIn("baseline.json: malformed: uds.msgs_per_sec is 0",
                      result.stderr)

    def test_mismatched_bench_is_refused(self):
        result = self.gate(baseline("bench_serve"), baseline("bench_transport"))
        self.assertEqual(result.returncode, 1)
        self.assertIn("does not match", result.stderr)


if __name__ == "__main__":
    unittest.main()
