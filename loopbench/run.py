#!/usr/bin/env python3
"""Entry point of the loop benchmark (see README.md).

Builds loopbench from source into .bench_build/ at the repository root,
then runs one workload:

    python3 loopbench/run.py --workload catalog_deploy --seed 1 \\
        --seconds 36 --trace 0

The last line of standard output is the JSON result. Build output goes
to standard error. `--self-test` instead runs a tiny instance of every
workload and checks the result format, the metric names listed in
BENCHMARK.json, the output checks, and that the simulated metrics are a
pure function of the seed.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "loopbench")
# A single run must end well inside the 180 s every caller allows.
RUN_TIMEOUT_S = 170
# Metrics computed by the simulator; they must repeat exactly at a seed.
SIMULATED = ("energy_savings", "coverage_instr", "package_bytes")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def build():
    cmds = []
    # Once configured, `cmake --build` re-runs the configure step itself
    # when a CMakeLists.txt changes.
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        cmds.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run(args, capture=False):
    """Run loopbench; return (exit code, stdout or None)."""
    cmd = [BINARY] + args
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: loopbench exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode, done.stdout


def result(workload, seed, trace):
    code, out = run(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.2", "--trace", str(trace), "--tiny"],
                    capture=True)
    if code != 0:
        raise AssertionError("%s seed %d trace %d exited %d"
                             % (workload, seed, trace, code))
    return json.loads(out.strip().splitlines()[-1])


def check_result(r, declared, workload, trace):
    where = "%s trace %d" % (workload, trace)
    assert set(r) == {"correct", "attempted", "failed", "metrics"}, where
    assert r["correct"] is True and r["failed"] == 0, where
    assert isinstance(r["attempted"], int) and r["attempted"] >= 1, where
    got = r["metrics"]
    assert list(got) == [m["name"] for m in declared], (
        where, sorted(set(got) ^ {m["name"] for m in declared}))
    for m in declared:
        v = got[m["name"]]
        assert NAME_RE.match(m["name"]), m["name"]
        assert v["unit"] == m["unit"], (where, m["name"])
        assert isinstance(v["value"], (int, float)), (where, m["name"])
        assert math.isfinite(v["value"]), (where, m["name"])
        if trace == 0:
            assert v["value"] != 0, (where, m["name"], "is zero")


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        first = result(name, 1, 0)
        check_result(first, bench["end_to_end"], name, 0)
        check_result(result(name, 1, 1), bench["per_layer"], name, 1)
        again, other = result(name, 1, 0), result(name, 2, 0)

        def sim(r):
            return [r["metrics"][k]["value"] for k in SIMULATED]

        assert sim(again) == sim(first), (name, "not repeatable")
        assert sim(other) != sim(first), (name, "ignores the seed")
        print("self-test: %s ok" % name)
    print("self-test: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        self_test()
        return 0
    if not a.workload:
        p.error("--workload is required")
    code, _ = run(["--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace", str(a.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
