#!/usr/bin/env python3
"""Repository benchmark: one named workload through the streaming T-Part
cluster, end-to-end metrics (timed run) or per-layer metrics (traced run).

    python3 perfbench/run.py --workload micro --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds the
engine from ../src plus the two runners in this directory (Release) under
.bench_build/perfbench; later calls rebuild incrementally. The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by one "meta" line recording the seed, host, compiler, build
type and git commit. --smoke runs every workload small, in both modes, and
asserts the result protocol. See NOTES.md for what each metric means.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "perfbench-spans"
# A run must finish well inside the three minutes one invocation may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runners; False on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"engine sources not found under {ROOT / 'src'}; run from a "
            "full checkout of the repository")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench", "perfbench_traced"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(workload, seed, seconds, trace, txns=None):
    """Runs one of the two programs; returns (meta, result) or None."""
    exe = BUILD / ("perfbench_traced" if trace else "perfbench")
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if txns is not None:
        cmd.append(f"--txns={txns}")
    if trace:
        SPANS.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--spans-out={SPANS / (workload + '.trace.json')}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{exe.name} exceeded {RUN_TIMEOUT_S} s and was stopped")
        return None
    if done.returncode != 0:
        log(f"{exe.name} exited with code {done.returncode}")
        return None
    lines = [ln for ln in done.stdout.splitlines() if ln.strip()]
    if len(lines) < 2:
        log(f"{exe.name} printed no result")
        return None
    try:
        meta = json.loads(lines[-2])["meta"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as e:
        log(f"unparsable output: {e}")
        return None
    return meta, result


def check_result(result, trace):
    """Problems with a result against the protocol and BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted = {result['attempted']!r}")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append(f"failed = {result['failed']!r}")
    declared = declared_metrics(trace)
    got = result["metrics"]
    if set(got) != {name for name, _ in declared}:
        missing = sorted({n for n, _ in declared} - set(got))
        extra = sorted(set(got) - {n for n, _ in declared})
        problems.append(f"metric set differs: missing {missing}, extra {extra}")
    for name, unit in declared:
        m = got.get(name)
        if m is None:
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r} is not a finite number")
        if m.get("unit") != unit:
            problems.append(f"{name} unit {m.get('unit')!r} != {unit!r}")
    return problems


def smoke():
    """Every workload, both modes, small: the protocol and oracle hold."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (False, True):
            mode = "traced" if trace else "timed"
            out = run_binary(name, seed=7, seconds=0.5, trace=trace, txns=2000)
            if out is None:
                log(f"smoke {name} {mode}: run failed")
                ok = False
                continue
            meta, result = out
            problems = check_result(result, trace)
            if result.get("failed") != 0 or result.get("correct") is not True:
                problems.append(f"failed_txn_frac = {meta.get('failed_txn_frac')}"
                                f", correct = {result.get('correct')}")
            if trace and (meta.get("replay_plans") != meta.get("cluster_plans")
                          or meta.get("plans_match") != "true"):
                problems.append(f"replayed {meta.get('replay_plans')} plans, "
                                f"cluster ran {meta.get('cluster_plans')}")
            for p in problems:
                log(f"smoke {name} {mode}: {p}")
            ok = ok and not problems
            if not problems:
                log(f"smoke {name} {mode}: ok ({len(result['metrics'])} metrics)")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small run of every workload in both modes")
    args = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file():
        log(f"BENCHMARK.json not found at {ROOT}")
        return 1
    if not build():
        return 1
    if args.smoke:
        return smoke()
    if not args.workload:
        log("--workload is required")
        return 1

    out = run_binary(args.workload, args.seed, args.seconds, bool(args.trace))
    if out is None:
        return 1
    meta, result = out
    problems = check_result(result, bool(args.trace))
    if problems:
        for p in problems:
            log(f"invalid result: {p}")
        return 1
    meta["git_commit"] = git_commit()
    meta["mode"] = "traced" if args.trace else "timed"
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
