#!/usr/bin/env python3
"""Check that two sets of benchmark runs of the same code agree.

    python3 benchmark/check_repeat.py SET_A SET_B

A set is a directory of files named <workload>-seed<N>.json whose last line
is the result object benchmark/run.py prints with --trace 0. For every
workload and end-to-end metric in BENCHMARK.json this prints each set's
median and spread (interquartile range over the median, from
statistics.quantiles(values, n=4)) and fails when

  * the two medians differ by more than the metric's bound (as a share of
    SET_A's median), or
  * a spread other than setup_s's exceeds the bound, or
  * any run was incorrect or counted failed operations.

Exit status 0 when every check passes, 1 otherwise.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(d):
    runs = {}
    for f in sorted(Path(d).glob("*-seed*.json")):
        workload = f.name.rsplit("-seed", 1)[0]
        lines = f.read_text().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None  # the run printed no result
        runs.setdefault(workload, []).append((f.name, result))
    return runs


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load_set(argv[1]), load_set(argv[2])]
    failures = []
    for w in (x["name"] for x in spec["workloads"]):
        runs = []
        for label, s in zip("AB", sets):
            results = []
            for name, res in s.get(w, []):
                if res is None:
                    failures.append(f"{w}: set {label} {name}: no result")
                    continue
                if not res["correct"] or res["failed"]:
                    failures.append(f"{w}: set {label} {name}: correct={res['correct']} "
                                    f"failed={res['failed']}")
                results.append(res)
            runs.append(results)
        if any(len(r) < 2 for r in runs):
            failures.append(f"{w}: fewer than 2 results in a set")
            continue
        print(f"{w}  (runs: {len(runs[0])} + {len(runs[1])})")
        for m in spec["end_to_end"]:
            vals = [[res["metrics"][m["name"]]["value"] for res in rs] for rs in runs]
            med = [statistics.median(v) for v in vals]
            spr = [spread(v) for v in vals]
            diff = (med[1] - med[0]) / med[0] if med[0] else 0.0
            verdict = []
            if abs(diff) > m["bound"]:
                verdict.append("MEDIANS DIFFER")
            if m["name"] != "setup_s" and max(spr) > m["bound"]:
                verdict.append("SPREAD")
            print(f"  {m['name']:18s} A {med[0]:12.6g}  B {med[1]:12.6g} {m['unit']:6s}"
                  f" diff {diff:+7.2%}  spread {spr[0]:6.2%} / {spr[1]:6.2%}"
                  f"  bound {m['bound']:.0%}  {' '.join(verdict) or 'ok'}")
            failures += [f"{w}: {m['name']}: {v}" for v in verdict]
    for f in failures:
        print(f"FAIL {f}")
    print("check_repeat: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
