#!/usr/bin/env python3
"""Builds and runs the job benchmark.

    python3 jobbench/run.py --workload terasort-small-seg --seed 1 \
        --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and
builds jobbench/CMakeLists.txt (the benchmark program plus the library
layers it calls) under $CARGO_TARGET_DIR/jobbench, default
.bench_build/jobbench; later runs rebuild incrementally. Build output
goes to stderr. The program's stdout is passed through: its last line is
the JSON result.

Scratch data lives under .bench_work/ and is removed when the run ends.
A traced run (--trace 1) writes its Chrome trace to
.bench_out/trace-<workload>-seed<N>.json.

Extra flags for the self-check (jobbench/selftest.py): --size tiny runs
each workload at a small input size, --inject drop-record breaks every
job's output on purpose.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def log(msg):
    print(f"jobbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "jobbench")


def build():
    """Configures (once) and builds the program; returns its path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", out, "--target", "jobbench",
           "-j", str(BUILD_JOBS)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "jobbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject", choices=("drop-record",))
    args = parser.parse_args()

    program = build()
    if program is None:
        log("build failed")
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work", work]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, f"trace-{tag}.json")]
    if args.inject:
        cmd += ["--inject", args.inject]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S}s; killed")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
