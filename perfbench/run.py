#!/usr/bin/env python3
"""Build and run the crnkit benchmark.

    python3 perfbench/run.py --workload proof --seed 1 --seconds 15 --trace 0

Run from the root of a crnkit checkout. The benchmark program
(perfbench/main.cc) is built from the checkout's sources with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then run
with the given arguments. Its last stdout line is the result object; it is
printed only after checking that it carries exactly the metrics
BENCHMARK.json declares for the mode (end_to_end for --trace 0, per_layer
for --trace 1), each once and with its declared unit. Traced runs write a
Chrome trace and a self-time table next to the build directory.

setup_s is the median of several set-ups, each in its own process and
timed from process start to the first timed operation: the run itself and
processes started with --setup-only before it. There are at least
SETUP_MIN_PROCESSES; cheap set-ups repeat until SETUP_SECONDS are spent
(at most SETUP_MAX_PROCESSES), so that their median is steady too.

Extra arguments (--inject-wrong-expected, --dump-inputs N) pass through to
the benchmark program. Exit status: 0 when every operation was correct,
nonzero otherwise (and no result line when the build or the self-check
fails).
"""
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_MIN_PROCESSES = 5
SETUP_MAX_PROCESSES = 21
SETUP_SECONDS = 1.0


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_digest():
    """sha256 over the library and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt", ".json")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "svc", "service.h")):
        sys.exit("perfbench: no crnkit sources under " + ROOT)
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns a list of problems with the result line (empty when valid)."""
    def no_duplicates(pairs):
        keys = [k for k, _ in pairs]
        dup = {k for k in keys if keys.count(k) > 1}
        if dup:
            raise ValueError(
                "printed more than once: " + ", ".join(sorted(dup)))
        return dict(pairs)

    try:
        result = json.loads(line, object_pairs_hook=no_duplicates)
    except ValueError as e:
        return ["result line: " + str(e)]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are " + ", ".join(sorted(result)))
        return problems
    declared = declared_metrics(trace)
    printed = result["metrics"]
    for name in sorted(set(declared) - set(printed)):
        problems.append("declared metric not printed: " + name)
    for name in sorted(set(printed) - set(declared)):
        problems.append("undeclared metric printed: " + name)
    for name in sorted(set(declared) & set(printed)):
        if printed[name].get("unit") != declared[name]:
            problems.append("unit of %s is %r, declared %r"
                            % (name, printed[name].get("unit"), declared[name]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a positive integer")
    return problems


def main(argv):
    binary = build()
    if "--dump-inputs" in argv:
        return subprocess.run([binary] + argv, cwd=ROOT).returncode
    trace = False
    if "--trace" in argv:
        trace = argv[argv.index("--trace") + 1] != "0"
    out_dir = os.path.join(os.path.dirname(build_dir()), "perfbench-traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary] + argv + [
        "--reference", os.path.join(HERE, "reference.json"),
        "--out-dir", out_dir,
        "--source-digest", source_digest(),
    ]
    setups = []
    start = time.monotonic()
    while not trace and len(setups) < SETUP_MAX_PROCESSES - 1 and (
            len(setups) < SETUP_MIN_PROCESSES - 1
            or time.monotonic() - start < SETUP_SECONDS):
        proc = subprocess.run(cmd + ["--setup-only"], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("perfbench: --setup-only run failed (exit %d)"
                  % proc.returncode, file=sys.stderr)
            return proc.returncode
        setups.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        print("perfbench: benchmark printed nothing (exit %d)"
              % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    problems = check_result(lines[-1], trace)
    for line in lines[:-1]:
        print(line)
    if problems:
        for p in problems:
            print("perfbench: self-check: " + p, file=sys.stderr)
        return 1
    if setups:
        result = json.loads(lines[-1])
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        print(json.dumps({"setup_samples_s": setups}))
        lines[-1] = json.dumps(result)
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
