#!/usr/bin/env python3
"""Self-test of the benchmark itself (nothing here is timed).

    python3 perfbench/selftest.py [--workloads proof,serve_hot,...]

1. Seeded inputs: the same --seed prints byte-identical inputs (request
   sequences, circuit set, ensemble seeds); another seed prints different
   ones for every seeded input kind.
2. Injected wrong expectation: with --inject-wrong-expected (a benchmark-
   side corruption of one expected answer) every workload reports
   correct=false with failed >= 1 and exits nonzero.
3. Metric coverage: --trace 0 prints exactly the end_to_end metrics and
   --trace 1 exactly the per_layer metrics of BENCHMARK.json, each once
   with its unit (run.py refuses the result line otherwise).

Runs use --seconds 1; the proof workload still runs one full round.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args):
    proc = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def check_inputs(failures):
    def dump(seed):
        code, out, err = run(["--dump-inputs", "64", "--seed", str(seed)])
        if code != 0:
            failures.append("--dump-inputs failed: " + err[-400:])
        return out

    a, b, c = dump(1), dump(1), dump(2)
    if a != b:
        failures.append("seed 1 gave different inputs on two runs")
    for kind in ("serve_hot", "serve_cold", "ensemble"):
        lines_a = [l for l in a.splitlines() if l.startswith(kind + " ")]
        lines_c = [l for l in c.splitlines() if l.startswith(kind + " ")]
        if not lines_a or lines_a == lines_c:
            failures.append("seeds 1 and 2 gave the same %s inputs" % kind)


def check_workload(workload, failures):
    base = ["--workload", workload, "--seed", "7", "--seconds", "1"]
    code, out, err = run(base + ["--trace", "0", "--inject-wrong-expected"])
    last = out.strip().splitlines()[-1:] or ["{}"]
    result = json.loads(last[0])
    if code == 0 or result.get("correct", True) or result.get("failed", 0) < 1:
        failures.append("%s: injected wrong expectation passed" % workload)
    for trace in ("0", "1"):
        code, out, err = run(base + ["--trace", trace])
        if code != 0:
            failures.append("%s --trace %s: exit %d: %s"
                            % (workload, trace, code, err[-600:]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default="serve_hot,serve_cold,ensemble,proof")
    args = ap.parse_args()
    failures = []
    check_inputs(failures)
    for workload in args.workloads.split(","):
        check_workload(workload, failures)
    for f in failures:
        print("FAIL: " + f)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
