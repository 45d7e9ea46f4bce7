#!/usr/bin/env python3
"""Build the end-to-end benchmark and run its workloads.

One workload (the last stdout line is the result, as one JSON object):

    python3 benchmark/run.py --workload wire10 --seed 1 --seconds 20 --trace 0

All four workloads with a readable table (exit status 1 if any check fails):

    python3 benchmark/run.py --all [--seed 1] [--seconds 20] [--trace 0|1]
    python3 benchmark/run.py --smoke          # all four at ~1/50 scale

The benchmark program, rhhh_bench, is built with CMake from
benchmark/CMakeLists.txt into $CARGO_TARGET_DIR (default .bench_build) at
the repository root; temporary files and traces go there too. See
benchmark/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then brings rhhh_bench up to date; returns its path."""
    out = build_root() / "cmake"
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4", "--target", "rhhh_bench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "rhhh_bench"


def run_one(exe, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, parsed result or None)."""
    work = build_root() / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", str(work)]
    if trace:
        cmd += ["--trace", str(build_root() / "trace" / workload)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def validate(result, trace):
    """Checks the result against BENCHMARK.json; returns a list of problems."""
    s = spec()
    want = {m["name"]: m["unit"] for m in s["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = result.get("metrics", {})
    for name, unit in want.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} unit {got[name].get('unit')} != {unit}")
    for name in got:
        if name not in want:
            problems.append(f"metric {name} not in BENCHMARK.json")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    return problems


def run_all(exe, args):
    names = [w["name"] for w in spec()["workloads"]]
    ok = True
    for name in names:
        code, result = run_one(exe, name, args.seed, args.seconds, args.trace, args.smoke)
        problems = validate(result, args.trace) if result else ["no result"]
        ok = ok and code == 0 and not problems and result["correct"]
        status = "ok" if code == 0 and not problems else f"FAILED (exit {code})"
        print(f"\n{name}: {status}  ops={result['attempted'] if result else '-'}"
              f"  ops_failed={result['failed'] if result else '-'}")
        for p in problems:
            print(f"  problem: {p}")
        for metric, v in sorted((result or {}).get("metrics", {}).items()):
            print(f"  {metric:34s} {v['value']:14.6g} {v['unit']}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--smoke", action="store_true", help="~1/50 scale (implies --all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = 2 if args.smoke else spec()["run_seconds"]
    if not args.workload and not (args.all or args.smoke):
        ap.error("give --workload NAME, --all or --smoke")

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    if not args.workload:
        return run_all(exe, args)
    code, result = run_one(exe, args.workload, args.seed, args.seconds, args.trace, args.smoke)
    if result is None:
        print("run.py: rhhh_bench printed no result", file=sys.stderr)
        return 1
    problems = validate(result, args.trace)
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    print(json.dumps(result))
    if problems:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
