#!/usr/bin/env python3
"""Builds perfbench from the sources in this checkout and runs one workload.

    python3 perfbench/run.py --workload proxy_rpc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The build lives in $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root; the first run configures and compiles it, later runs
only re-check it. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. The metric names come from BENCHMARK.json at the
checkout root, and the benchmark fails unless it reports exactly those. Exits
non-zero, printing no result, when the build or the run fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
RUN_TIMEOUT_S = 170


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def declared_names():
    """The end-to-end and per-layer metric names, comma-joined, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [",".join(m["name"] for m in spec[kind]) for kind in ("end_to_end", "per_layer")]


def main(argv):
    try:
        end_to_end, per_layer = declared_names()
    except (OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: cannot read BENCHMARK.json: %s\n" % e)
        return 1
    if not build():
        return 1
    args = [os.path.join(BUILD, "perfbench")] + argv
    args += ["--end-to-end", end_to_end, "--per-layer", per_layer]
    options = dict(zip(argv, argv[1:]))
    if options.get("--trace") == "1":
        workload = options.get("--workload", "run")
        args += ["--spans-out", os.path.join(BUILD, "spans-%s.jsonl" % workload)]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(out.decode(errors="replace"))
        return proc.returncode
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
