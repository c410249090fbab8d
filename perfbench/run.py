#!/usr/bin/env python3
"""Builds and runs the LLM-MS end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload ask --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --spread 10 --workloads ask,rag,serve

The first form builds the benchmark (CMake, into $CARGO_TARGET_DIR or
.bench_build) and runs one workload; its last line of output is the result
JSON. --selftest runs the stats helpers' self-tests. --spread runs every
workload N times with different seeds and prints, per metric, the median,
the quartiles and the quartile distance over the median, flagging any metric
wider than its bound in BENCHMARK.json; it also checks determinism (same seed
twice, traced against untraced, different seeds differ).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(HERE)
# Extra seconds a run may take beyond its measured phase (set-up, the upload
# probe, scoring) before it is killed.
RUN_SLACK_SECONDS = 120
DETERMINISTIC = ("mean_reward", "reward_per_token", "core.tokens_per_query",
                 "core.rounds_per_query")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds the benchmark; returns the build directory."""
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources not found next to perfbench/")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "llmms_perfbench",
           "perfbench_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return out


def run_once(out, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [os.path.join(out, "llmms_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           "1" if trace else "0"]
    if trace:
        cmd += ["--spans", os.path.join(out, f"spans-{workload}-{seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + RUN_SLACK_SECONDS)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse(lines):
    """Returns (run line, result line) as dicts."""
    run = json.loads(lines[-2])["run"]
    result = json.loads(lines[-1])
    return run, result


def spread(out, args):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    summary = {}
    problems = []
    for workload in workloads:
        values = {}
        fingerprints = {}
        determinism = {}
        for i in range(args.spread):
            seed = args.seed + i
            code, lines = run_once(out, workload, seed, seconds, False)
            if code != 0:
                problems.append(f"{workload} seed {seed}: exit {code}")
                continue
            run, result = parse(lines)
            fingerprints[seed] = run["fingerprint"]
            determinism[seed] = run["determinism"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
        if len(set(fingerprints.values())) != len(fingerprints):
            problems.append(f"{workload}: two seeds gave one fingerprint")

        # Determinism: the first seed again, untraced and traced.
        seed = args.seed
        for trace in (False, True):
            code, lines = run_once(out, workload, seed, seconds, trace)
            if code != 0:
                problems.append(f"{workload} repeat trace={int(trace)}: exit {code}")
                continue
            run, result = parse(lines)
            if run["fingerprint"] != fingerprints.get(seed):
                problems.append(f"{workload}: fingerprint of seed {seed} changed")
            again = dict(run["determinism"])
            if trace:
                for name in ("core.tokens_per_query", "core.rounds_per_query"):
                    traced = result["metrics"][name]["value"]
                    if traced != again[name]:
                        problems.append(f"{workload}: traced {name} {traced} "
                                        f"!= {again[name]} from the answers")
            for name in DETERMINISTIC:
                if again[name] != determinism.get(seed, {}).get(name):
                    problems.append(
                        f"{workload}: {name} differs on seed {seed} "
                        f"(trace={int(trace)}): {again[name]} vs "
                        f"{determinism.get(seed, {}).get(name)}")

        rows = {}
        print(f"\n{workload}: {args.spread} seeds from {args.seed}, "
              f"{seconds} s each")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and rel > bound:
                flag = "  WIDER THAN BOUND"
                if name != "setup_s":
                    problems.append(f"{workload} {name}: spread {rel:.3f} > "
                                    f"bound {bound}")
            elif bound is not None and rel > bound / 3:
                flag = "  above a third of bound"
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                          "bound": bound, "values": vals}
            print(f"  {name:<20} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{rel:>8.4f} {bound if bound is not None else '-':>6}{flag}")
        summary[workload] = rows
    for p in problems:
        print("PROBLEM:", p)
    print(json.dumps({"spread": summary, "problems": problems}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--spread", type=int, default=0,
                        help="runs per workload for the spread report")
    parser.add_argument("--workloads", help="comma-separated, for --spread")
    args = parser.parse_args()

    out = build()
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    if args.spread:
        return spread(out, args)
    if not args.workload or not args.seconds:
        parser.error("--workload and --seconds are required")
    code, lines = run_once(out, args.workload, args.seed, args.seconds,
                           args.trace == 1)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
