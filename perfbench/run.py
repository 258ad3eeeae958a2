#!/usr/bin/env python3
"""The repository benchmark: builds vaultperf from source and runs it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

Run from the repository root. The first form runs one workload; the last
line of its output is the JSON result. `--workload all` runs the four
workloads untraced one after another and prints their rows, ending with
each workload's failed_ratio. `--self-test` runs the benchmark's own
checks.

BENCHMARK.json is the one list of metrics and their units. vaultperf
reports each metric it measured by name; this script refuses a run whose
names differ from BENCHMARK.json's (a per-layer metric of a layer the
workload does not exercise may be absent and reads 0), prints one row per
metric with its unit, and ends with the JSON result.

vaultperf is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the Vault libraries from src/ in Release mode. It builds into
$CARGO_TARGET_DIR/vaultperf, or .bench_build/vaultperf when that is
unset; build output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold-unit", "corpus-cold", "edit-session", "engine-run"]
RUN_TIMEOUT_S = 175


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Vault sources at " + os.path.join(ROOT, "src"))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "vaultperf")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "vaultperf",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "vaultperf")


def run(binary, args):
    """Runs vaultperf; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("vaultperf did not finish within %d s" % RUN_TIMEOUT_S)
    return done.returncode, done.stdout.splitlines()


def result(name, trace, lines):
    """Checks vaultperf's last line against BENCHMARK.json and prints the
    rows and the JSON result; returns the result."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if trace else "end_to_end"]
    try:
        out = json.loads(lines[-1])
        measured = out["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        fail("no result from vaultperf for " + name)
    unknown = sorted(set(measured) - {m["name"] for m in listed})
    if unknown:
        fail("metrics not in BENCHMARK.json: " + ", ".join(unknown))
    absent = [m["name"] for m in listed if m["name"] not in measured]
    if absent and not trace:
        fail("end-to-end metrics not measured: " + ", ".join(absent))
    print("\n".join(lines[:-1]))
    out["metrics"] = {}
    for m in listed:
        value = measured.get(m["name"], 0)
        note = "" if m["name"] in measured else "layer not exercised"
        print("%-13s %-30s %16.6f %-6s %s" % (name, m["name"], value,
                                             m["unit"], note))
        out["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and not opts.workload:
        fail("--workload or --self-test is required")

    binary = build()
    if opts.self_test:
        code, lines = run(binary, ["--self-test"])
        print("\n".join(lines))
        return code

    common = ["--seed", opts.seed, "--seconds", opts.seconds]
    if opts.workload != "all":
        code, lines = run(binary, ["--workload", opts.workload] + common +
                          ["--trace", opts.trace])
        if code != 0:
            print("\n".join(lines))
            return code
        print(json.dumps(result(opts.workload, opts.trace == "1", lines)))
        return 0

    summary = []
    worst = 0
    for name in WORKLOADS:
        code, lines = run(binary, ["--workload", name] + common +
                          ["--trace", "0"])
        worst = max(worst, code)
        if code != 0 or not lines:
            summary.append("%-13s failed_ratio unavailable (exit %d)"
                           % (name, code))
            continue
        out = result(name, False, lines)
        ratio = out["failed"] / out["attempted"]
        summary.append("%-13s failed_ratio %.6f (%d of %d ops failed)" %
                       (name, ratio, out["failed"], out["attempted"]))
    print("\n".join(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
