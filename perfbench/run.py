#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (a CMake package that
compiles the simulator from ../src) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs one workload. The last line of
standard output is the run's JSON result; everything before it is the
human-readable table. perfbench/README.md defines the workloads and
metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_builtin", "sweep_user_graphs", "sweep_faults", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# sockaddr_un.sun_path holds 108 bytes including the terminator.
MAX_SOCKET_PATH = 100


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def build(build_dir, target):
    """Configure once, then build @target; @return an error or None."""
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                return "build step %s failed: %s" % (step[:2], err)
            if done.returncode != 0:
                with open(log_path) as text:
                    tail = text.read()[-4000:]
                return "build failed (%s):\n%s" % (log_path, tail)
    return None


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as spec:
        bench = json.load(spec)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("simulator sources not found at %s"
                    % os.path.join(ROOT, "src"))
    build_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))

    if args.selftest:
        error = build(build_dir, "perfbench_selftest")
        if error:
            return fail(error)
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")],
            cwd=ROOT).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")
    error = build(build_dir, "hpim_perfbench")
    if error:
        return fail(error)

    command = [os.path.join(build_dir, "hpim_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.workload == "serve":
        socket = os.path.relpath(
            os.path.join(build_dir, "perfbench-%d.sock" % os.getpid()),
            ROOT)
        if len(socket) > MAX_SOCKET_PATH:
            return fail("socket path too long: " + socket)
        command += ["--socket", socket]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, "perfbench-trace-%s-%d.json"
            % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("%s did not finish in %d s"
                    % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        return fail("hpim_perfbench exited with %d" % done.returncode)

    # The JSON line must carry exactly the metrics BENCHMARK.json names.
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        sys.stderr.write(done.stdout)
        return fail("metrics differ from BENCHMARK.json: %s"
                    % sorted(set(result["metrics"]) ^ declared))
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
