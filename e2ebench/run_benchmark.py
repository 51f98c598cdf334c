#!/usr/bin/env python3
"""The repository benchmark's one command.

One run (the form BENCHMARK.json's "command" takes):

    python3 e2ebench/run_benchmark.py --workload NAME --seed N --seconds S --trace 0|1

builds bench_e2e from the checkout's sources if needed, runs one workload,
prints its metric lines and, as the last line of standard output, the JSON
result {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones.

Every workload, untraced and then traced (exits non-zero on a failed
check, a digest mismatch, a failed operation, or a layer sum out of range):

    python3 e2ebench/run_benchmark.py [--seed N] [--seconds S] [--runs K] [--out FILE]

Other modes:

    --compare SET_A SET_B   medians, quartiles and verdicts per workload and
                            metric for two result files written by --out
    --write-golden          record the golden digests for the default seed
    --smoke                 bench_e2e --smoke: every workload at a tiny size
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")
GOLDEN = os.path.join(HERE, "golden.json")
DEFINITION = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run_benchmark: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds bench_e2e and mwr_served; logs to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to " + HERE)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def load_definition():
    with open(DEFINITION) as f:
        return json.load(f)


def load_golden():
    if not os.path.isfile(GOLDEN):
        return {}
    with open(GOLDEN) as f:
        return json.load(f)


def run_bench(workload, seed, seconds, traced):
    """Runs bench_e2e once; returns (exit code, parsed output)."""
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds),
            "--work-dir", os.path.join(BUILD, "tmp")]
    if traced:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--traced", "--trace-out",
                 os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    # Its own process group, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    parsed = {"metrics": {}, "digests": {}, "checks": [],
              "attempted": 0, "failed": 0, "lines": []}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] == "check":
            parsed["checks"].append((fields[2], fields[3] == "ok",
                                     " ".join(fields[4:])))
        elif len(fields) == 4 and fields[0] == "digest":
            parsed["digests"][fields[2]] = fields[3]
        elif len(fields) == 4 and fields[0] == "operations":
            parsed["attempted"] = int(fields[2])
            parsed["failed"] = int(fields[3])
        elif len(fields) == 4 and fields[0] == workload:
            parsed["metrics"][fields[1]] = {"value": float(fields[2]),
                                            "unit": fields[3]}
        else:
            continue
        parsed["lines"].append(line)
    return proc.returncode, parsed


def golden_check(workload, seed, parsed):
    """(name, ok, detail) against golden.json, or None when it does not apply."""
    golden = load_golden()
    expected = golden.get("digests", {}).get(workload)
    if expected is None or seed != golden.get("seed") \
            or "golden" not in parsed["digests"]:
        return None
    actual = parsed["digests"]["golden"]
    return ("golden_digest", actual == expected,
            "expected %s got %s" % (expected, actual))


def one_run(workload, seed, seconds, traced):
    """Runs one workload; returns the benchmark's JSON result and the log."""
    code, parsed = run_bench(workload, seed, seconds, traced)
    if code not in (0, 1):
        fail("bench_e2e exited with %d on %s" % (code, workload))
    checks = list(parsed["checks"])
    golden = golden_check(workload, seed, parsed)
    if golden is not None:
        checks.append(golden)
    definition = load_definition()
    wanted = [m["name"] for m in
              definition["per_layer" if traced else "end_to_end"]]
    missing = [name for name in wanted if name not in parsed["metrics"]]
    if missing:
        fail("%s did not report %s" % (workload, ", ".join(missing)))
    result = {
        "correct": code == 0 and all(ok for _, ok, _ in checks),
        "attempted": max(1, parsed["attempted"]),
        "failed": parsed["failed"],
        "metrics": {name: parsed["metrics"][name] for name in wanted},
    }
    log = parsed["lines"] + (["check %s %s %s %s" % (
        workload, golden[0], "ok" if golden[1] else "FAIL", golden[2])]
        if golden is not None else [])
    failed_checks = [(n, d) for n, ok, d in checks if not ok]
    return result, log, failed_checks


# --- compare ---------------------------------------------------------------

def load_set(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def compare(path_a, path_b, same_code):
    definition = load_definition()
    bounds = {m["name"]: m for m in definition["end_to_end"]}
    better = {m["name"]: m["better"] for m in
              definition["end_to_end"] + definition["per_layer"]}
    sets = [load_set(path_a), load_set(path_b)]
    status = 0
    print("%-16s %-40s %12s %12s %9s %8s %8s  %s" % (
        "workload", "metric", "median A", "median B", "delta", "spreadA",
        "spreadB", "verdict"))
    for workload in [w["name"] for w in definition["workloads"]]:
        for traced in (False, True):
            runs = [[r["result"]["metrics"] for r in s
                     if r["workload"] == workload and r["trace"] == traced]
                    for s in sets]
            if not runs[0] or not runs[1]:
                continue
            for name in runs[0][0]:
                a = [m[name]["value"] for m in runs[0] if name in m]
                b = [m[name]["value"] for m in runs[1] if name in m]
                if not a or not b:
                    continue
                med_a, med_b = statistics.median(a), statistics.median(b)
                delta = (med_b - med_a) / abs(med_a) if med_a else 0.0
                sign = 1.0 if better[name] == "higher" else -1.0
                gain = sign * delta
                verdict = "-"
                if name in bounds:
                    bound = bounds[name]["bound"]
                    spreads = max(spread(a), spread(b))
                    b_always_better = (min(b) > max(a) if sign > 0
                                       else max(b) < min(a))
                    if name != "setup_s" and spreads > bound \
                            and not b_always_better:
                        verdict = "unresolved"
                    elif gain < -bound:
                        verdict = "worse"
                    elif gain > bound:
                        verdict = "better"
                    else:
                        verdict = "unchanged"
                    if verdict == "worse" or (
                            same_code and verdict != "unchanged"):
                        status = 1
                print("%-16s %-40s %12.6g %12.6g %+8.2f%% %7.2f%% %7.2f%%  %s"
                      % (workload, name, med_a, med_b, 100 * delta,
                         100 * spread(a), 100 * spread(b), verdict))
    return status


# --- the full suite ----------------------------------------------------------

def full_suite(args):
    definition = load_definition()
    out = open(args.out, "w") if args.out else None
    ok = True
    for workload in [w["name"] for w in definition["workloads"]]:
        plan = [(seed, False) for seed in range(args.seed, args.seed + args.runs)]
        plan.append((args.seed, True))
        for seed, traced in plan:
            result, log, failed_checks = one_run(workload, seed, args.seconds,
                                                 traced)
            for line in log:
                print(line)
            if failed_checks or result["failed"] or not result["correct"]:
                ok = False
                print("FAILED %s seed %d%s: %s" % (
                    workload, seed, " traced" if traced else "",
                    "; ".join("%s %s" % c for c in failed_checks)
                    or "failed operations"))
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": traced, "result": result})
                          + "\n")
                out.flush()
    if out:
        out.close()
    print("benchmark: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def write_golden(seconds):
    digests = {}
    for workload in [w["name"] for w in load_definition()["workloads"]]:
        code, parsed = run_bench(workload, 1, seconds, False)
        if code != 0 or "golden" not in parsed["digests"]:
            fail("%s did not produce a golden digest" % workload)
        digests[workload] = parsed["digests"]["golden"]
    with open(GOLDEN, "w") as f:
        json.dump({"seed": 1, "digests": digests}, f, indent=2)
        f.write("\n")
    print("wrote " + GOLDEN)
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (seeds seed..)")
    parser.add_argument("--out", help="append every result to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    parser.add_argument("--same-code", action="store_true",
                        help="with --compare: fail unless every end-to-end "
                             "metric is unchanged")
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if args.compare:
        return compare(args.compare[0], args.compare[1], args.same_code)
    if args.seconds is None:
        args.seconds = load_definition()["run_seconds"]
    build()
    if args.smoke:
        return subprocess.run([BINARY, "--smoke", "--benchmark-json",
                               DEFINITION, "--work-dir",
                               os.path.join(BUILD, "tmp")],
                              cwd=ROOT).returncode
    if args.write_golden:
        return write_golden(min(args.seconds, 3.0))
    if args.workload is None:
        return full_suite(args)

    result, log, _ = one_run(args.workload, args.seed, args.seconds,
                             args.trace == 1)
    for line in log:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
