#!/usr/bin/env python3
"""Attack-job benchmark: build the cutelock library from source, run one
workload, and print one JSON result line.

    python3 attackbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 attackbench/run.py --self-test

Run from the repository root. The first call configures and builds into
.bench_build/attackbench (about a minute on four cores); later calls only
re-check the build. With --trace 0 the last line carries the end-to-end
metrics; with --trace 1 the workload runs twice, untraced and then traced,
and the last line carries the per-layer metrics plus the tracing overhead
(traced minus untraced end-to-end numbers). See attackbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "attackbench")
WORKLOADS = ("mega_static", "lock_matrix", "service_mix")
RUN_LIMIT_S = 170  # every run, trace runs included, ends within this


def fail(message):
    print("attackbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cutelock sources at src/ next to attackbench/; "
             "run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
            "attackbench", "attackbench_selftest", "cutelock_cli"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(args, deadline):
    """Run the benchmark binary; echo its report lines; return its result."""
    binary = os.path.join(BUILD_DIR, "attackbench")
    # Own process group, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_LIMIT_S)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("attackbench exited %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def overhead_metrics(untraced, traced):
    """Tracing overhead: the traced minus the untraced end-to-end numbers."""
    u, t = untraced["end_to_end"], traced["end_to_end"]
    p50 = t["job_p50_s"]["value"] - u["job_p50_s"]["value"]
    base = u["job_p50_s"]["value"]
    return {
        "trace.overhead_p50_s": {"value": p50, "unit": "s"},
        "trace.overhead_frac": {"value": p50 / base if base > 0 else 0.0,
                                "unit": "fraction"},
        "trace.overhead_jobs_per_s": {
            "value": t["jobs_per_s"]["value"] - u["jobs_per_s"]["value"],
            "unit": "1/s"},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--print-verdicts", action="store_true",
                        help="list every cell's verdict (to refresh expected.cpp)")
    opts = parser.parse_args()

    build()
    if opts.self_test:
        selftest = os.path.join(BUILD_DIR, "attackbench_selftest")
        sys.exit(subprocess.run([selftest]).returncode)
    if opts.workload is None or opts.seed is None or opts.seconds is None \
            or opts.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")

    deadline = time.time() + RUN_LIMIT_S
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds)]
    if opts.print_verdicts:
        args.append("--print-verdicts")
    untraced = run_binary(args + ["--trace", "0"], deadline)
    if opts.trace == 0:
        result = untraced
        metrics = untraced["end_to_end"]
    else:
        trace_file = os.path.join(
            BUILD_DIR, "trace-%s-%d.json" % (opts.workload, opts.seed))
        result = run_binary(args + ["--trace", "1", "--trace-out", trace_file],
                            deadline)
        metrics = dict(result["per_layer"])
        metrics.update(overhead_metrics(untraced, result))
        print("spans written to " + os.path.relpath(trace_file, ROOT))
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
        result["correct"] = result["correct"] and untraced["correct"]
    for name, m in metrics.items():
        print("%s = %.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
