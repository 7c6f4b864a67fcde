#!/usr/bin/env python3
"""T-REx benchmark entry point: builds the benchmark from source, runs it.

One run:

    python3 perfbench/run.py --workload cells_cold --seed 1 --seconds 10 --trace 0

builds `trex_perfbench` (the library from ../src plus perfbench/src) into
$CARGO_TARGET_DIR, default `.bench_build`, relative to the checkout root,
runs one workload and passes its output through. The last line of
standard output is the run's JSON result. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones (see BENCHMARK.json).

Steadiness report: run a workload N times on seeds seed..seed+N-1 and
print the median, the quartiles and the quartile spread of every metric:

    python3 perfbench/run.py --workload serving_warm --seconds 10 --steadiness 10

Unit tests of the benchmark's statistics:

    python3 perfbench/run.py --self-test
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    """Configures once, then builds `targets` incrementally; build logs go
    to stderr so stdout keeps only the benchmark's own lines."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} is not a T-REx checkout (no CMakeLists.txt or src/)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs one workload; returns (exit code, parsed last JSON line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S}s")
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def steadiness(binary, args):
    """Median and quartiles of every metric over `args.steadiness` seeds."""
    values = {}
    units = {}
    for i in range(args.steadiness):
        seed = args.seed + i
        code, result = run_once(binary, args.workload, seed, args.seconds,
                                args.trace, echo=False)
        if code != 0 or result is None or not result["correct"]:
            fail(f"{args.workload} seed {seed}: exit {code}, result {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            file=sys.stderr)
    print(f"{args.workload}, {args.steadiness} seeds from {args.seed}, "
          f"{args.seconds}s, trace {args.trace}")
    print(f"{'metric':34} {'unit':7} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:34} {units[name]:7} {median:12.5g} {q1:12.5g} "
              f"{q3:12.5g} {spread:8.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0,
                        help="run N seeds and report medians and quartiles")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perfbench_stats_test"])
        sys.exit(subprocess.run(
            [os.path.join(out, "perfbench_stats_test")]).returncode)
    if not args.workload:
        fail("--workload is required")
    binary = os.path.join(build(["trex_perfbench"]), "trex_perfbench")
    if args.steadiness > 0:
        steadiness(binary, args)
        return
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace, echo=True)
    if code != 0 or result is None:
        fail(f"benchmark exited {code} without a result")


if __name__ == "__main__":
    main()
