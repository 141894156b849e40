#!/usr/bin/env python3
"""Self-check of the job benchmark.

    python3 jobbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny input size and asserts:

- untraced runs print every end-to-end metric, traced runs every per-layer
  metric, each with the unit BENCHMARK.json gives it, and pass their checks;
- the traced run writes a Chrome trace with the expected spans, and its
  reducer spans decompose into fetch_wait + merge_next + reduce_fn + self;
- a deliberately broken output (a decorator stream that drops a record)
  makes jobs fail, the result say "correct": false, and the exit code
  non-zero;
- in a directory holding only BENCHMARK.json and the benchmark's own
  files, the command fails without printing a result.

Exits 0 when every assertion holds. Takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
FAILURES = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def run(bench, cwd, workload, trace, *extra):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", "1", "--trace", str(trace),
                              *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def check_metrics(result, wanted, label):
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in wanted},
          f"{label}: metric names match BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"])
        check(got is not None and got.get("unit") == m["unit"] and
              isinstance(got.get("value"), (int, float)),
              f"{label}: {m['name']} printed with unit {m['unit']}")


def check_trace(path, label):
    if not os.path.exists(path):
        check(False, f"{label}: span trace written")
        return
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    names = {e["name"] for e in spans}
    for name in ("job", "map_phase", "reduce_phase", "publish",
                 "server_start", "stop", "reduce_task", "fetch_wait",
                 "merge_next", "reduce_fn"):
        check(name in names, f"{label}: trace has {name} spans")
    by_id = {e["args"]["span"]: e for e in spans}
    tasks = [e for e in spans if e["name"] == "reduce_task"]
    ok = bool(tasks)
    for task in tasks:
        children = [e for e in spans
                    if e["args"]["parent"] == task["args"]["span"]]
        kids = sorted(e["name"] for e in children)
        covered = sum(e["dur"] for e in children)
        ok = ok and kids == ["fetch_wait", "merge_next", "reduce_fn"]
        ok = ok and covered <= task["dur"] + 3  # microsecond rounding
        parent = by_id.get(task["args"]["parent"])
        ok = ok and parent is not None and parent["name"] == "reduce_phase"
    check(ok, f"{label}: each reduce_task holds fetch_wait, merge_next and "
              f"reduce_fn within its duration, under reduce_phase")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    tiny = ("--size", "tiny")
    for wl in bench["workloads"]:
        name = wl["name"]
        proc, result = run(bench, ROOT, name, 0, *tiny)
        check(proc.returncode == 0 and result is not None,
              f"{name} untraced: exit 0 with a result line")
        if result:
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  f"{name} untraced: result keys")
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  f"{name} untraced: every job passed its checks")
            check_metrics(result, bench["end_to_end"], f"{name} untraced")

        proc, result = run(bench, ROOT, name, 1, *tiny)
        check(proc.returncode == 0 and result is not None,
              f"{name} traced: exit 0 with a result line")
        if result:
            check(result["correct"] and result["failed"] == 0,
                  f"{name} traced: every job passed its checks")
            check_metrics(result, bench["per_layer"], f"{name} traced")
            check(result["metrics"]["fail_ratio"]["value"] == 0,
                  f"{name} traced: fail_ratio is 0")
        check_trace(os.path.join(ROOT, ".bench_out",
                                 f"trace-{name}-seed{SEED}.json"),
                    f"{name} traced")

        proc, result = run(bench, ROOT, name, 0, *tiny,
                           "--inject", "drop-record")
        check(proc.returncode != 0, f"{name} broken output: exit non-zero")
        check(result is not None and not result["correct"] and
              result["failed"] > 0,
              f"{name} broken output: jobs counted as failed")
        if result:
            ratio = result["failed"] / result["attempted"]
            success = result["metrics"].get("success_ratio", {}).get("value")
            check(ratio > 0 and success is not None and
                  abs(success - (1 - ratio)) < 1e-9,
                  f"{name} broken output: fail ratio > 0 and "
                  f"success_ratio = 1 - fail ratio")

    # A directory with only BENCHMARK.json and the benchmark's files.
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        bench["command"] + ["--workload", bench["workloads"][0]["name"],
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "bare directory: exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
