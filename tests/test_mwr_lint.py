#!/usr/bin/env python3
"""Self-tests for tools/mwr_lint.py against the fixture corpus.

Each subtree under tests/lint_fixtures/bad/<rule>/ mirrors the src/
layout and must produce at least one finding of exactly that rule;
tests/lint_fixtures/good/ must lint clean while exercising suppressions,
masked prose, wrapper locking, and keyed-only unordered containers.

Run directly or via ctest (lint_selftest).
"""

import subprocess
import sys
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINTER = REPO_ROOT / "tools" / "mwr_lint.py"
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

# Fixture directory name -> (expected rule id, minimum finding count).
BAD_CASES = {
    "nondeterministic-seed": ("nondeterministic-seed", 3),
    "wall-clock": ("wall-clock", 4),
    "thread-id": ("thread-id", 1),
    "pointer-hash": ("pointer-hash", 2),
    "unordered-iteration": ("unordered-iteration", 2),
    "naked-mutex": ("naked-mutex", 4),
    "raw-ipc": ("raw-ipc", 9),
    # The serve whitelist names only the checkpoint writer; a rogue socket
    # anywhere in src/serve must fail.
    "raw-ipc-serve": ("raw-ipc", 6),
    "raw-simd": ("raw-simd", 5),
    "bad-suppression": ("bad-suppression", 2),
}


def run_lint(root):
    return subprocess.run(
        [sys.executable, str(LINTER), "--root", str(root), "src"],
        capture_output=True,
        text=True,
        timeout=60,
    )


class BadFixturesFail(unittest.TestCase):
    """Every bad fixture tree must fail with its own rule (and no other)."""


def _make_bad_test(name, rule, min_count):
    def test(self):
        result = run_lint(FIXTURES / "bad" / name)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        findings = [
            line for line in result.stdout.splitlines() if ": error: [" in line
        ]
        matching = [f for f in findings if f"[{rule}]" in f]
        self.assertGreaterEqual(
            len(matching), min_count,
            f"expected >= {min_count} [{rule}] findings, got:\n"
            + result.stdout,
        )
        if name != "bad-suppression":
            # A bad fixture must not trip unrelated rules (rule isolation).
            foreign = [f for f in findings if f"[{rule}]" not in f]
            self.assertEqual(foreign, [], f"cross-rule noise:\n{foreign}")

    return test


for _name, (_rule, _count) in BAD_CASES.items():
    setattr(
        BadFixturesFail,
        "test_" + _name.replace("-", "_"),
        _make_bad_test(_name, _rule, _count),
    )


class GoodFixturesPass(unittest.TestCase):
    def test_good_tree_is_clean_and_counts_suppressions(self):
        result = run_lint(FIXTURES / "good")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("0 finding(s)", result.stdout)
        # suppressed.cpp carries exactly two justified suppressions; the
        # count must be surfaced so reviewers can ratchet it.
        self.assertIn("2 suppression(s)", result.stdout)


class CliBehaviour(unittest.TestCase):
    def test_missing_scan_path_is_a_usage_error(self):
        result = run_lint(FIXTURES / "bad")  # has no src/ directly under it
        self.assertEqual(result.returncode, 2)

    def test_list_rules_names_every_rule(self):
        result = subprocess.run(
            [sys.executable, str(LINTER), "--list-rules"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        self.assertEqual(result.returncode, 0)
        listed = set(result.stdout.split())
        for rule, _ in BAD_CASES.values():
            if rule != "bad-suppression":
                self.assertIn(rule, listed)


if __name__ == "__main__":
    unittest.main(verbosity=2)
