#!/usr/bin/env python3
"""Build the benchmark program (bench.exe) from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tc-rmat --seed 1 --seconds 20 --trace 0

Its standard output is passed through; the last line is the JSON result.
The result's metric names and units must be exactly those BENCHMARK.json
lists (end_to_end with --trace 0, per_layer with --trace 1).  The exit
code is bench.exe's, or 1 when the build fails, the run overruns its time
limit or the metrics do not match.  See perfbench/README.md.
"""

import json
import os
import subprocess
import sys

RUN_LIMIT_S = 170


def expected_metrics(traced):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}


def main() -> int:
    traced = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1:][:1] != ["0"]
    expected = expected_metrics(traced)
    # the shared dune cache lives outside the checkout
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_LIMIT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return run.returncode or 1
    got = {k: v["unit"] for k, v in json.loads(lines[-1])["metrics"].items()}
    if got != expected:
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(expected.keys() - got.keys())}, "
              f"unexpected {sorted(got.keys() - expected.keys())}, "
              f"unit mismatch {sorted(k for k in got if k in expected and got[k] != expected[k])}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
