#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

From the repository root:

    python3 perfbench/spread.py --workload serve-mix --seeds 1-10

For every metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as a
share of the median, next to the bound BENCHMARK.json sets for it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        res = json.loads(last)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name, "")
        print(f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound!s:>6}")


if __name__ == "__main__":
    main()
