#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the DSM-PM2 libraries and the perfbench
binary from source into .bench_build/perfbench (configured on the first run,
rebuilt incrementally after), runs one workload and passes its report through. The last line of standard output is
the result object {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the spans are also written as Chrome trace JSON under
.bench_build/traces/.

Exits non-zero without a result when the build fails (for example when the
sources are not there), and with a failed result when the binary aborts or
overruns its deadline: every check it attempted counts as failed.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within 180 s; leave room for start-up and teardown.
RUN_DEADLINE_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log(f"perfbench: cannot run {cmd[0]}: {err}")
            return False
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for the mode, or None."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def validate(result, expected):
    """Problems with a result object, against the declared (name, unit) pairs."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if expected is not None:
        got = {name: m.get("unit") for name, m in result["metrics"].items()}
        if got != dict(expected):
            problems.append(f"metrics {sorted(got.items())} != declared "
                            f"{sorted(expected)}")
    return problems


def last_attempted(stdout):
    """Checks the binary reported before it stopped (0 if none)."""
    found = re.findall(r"checks (\d+)", stdout)
    return int(found[-1]) if found else 0


def failed_result(stdout):
    attempted = last_attempted(stdout) + 1  # the check that was running
    return {"correct": False, "attempted": attempted, "failed": attempted,
            "metrics": {}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_DEADLINE_S)
        stdout, code = done.stdout, done.returncode
    except subprocess.TimeoutExpired as err:
        stdout = err.stdout.decode() if isinstance(err.stdout, bytes) else (err.stdout or "")
        code = None
        log(f"perfbench: {args.workload} overran {RUN_DEADLINE_S} s")

    lines = stdout.rstrip("\n").split("\n")
    if code != 0:
        log(f"perfbench: binary exited with {code}")
        print("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines))
        print(json.dumps(failed_result(stdout)))
        return 1

    result = json.loads(lines[-1])
    problems = validate(result, declared_metrics(args.trace == 1))
    for p in problems:
        log(f"perfbench: {p}")
    if problems:
        result["correct"] = False
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
