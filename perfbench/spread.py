"""Run-to-run spread of the end-to-end metrics against BENCHMARK.json.

    python3 perfbench/spread.py --workload table1-run --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --save set-a.json
    python3 perfbench/spread.py --compare set-a.json set-b.json

Runs ``run.py`` once per seed (untraced, ``run_seconds`` from
BENCHMARK.json) and prints, for each metric, the median of the runs and
the distance between the first and third quartile as a share of the
median, next to the metric's bound.  ``--compare`` reads two saved sets
and prints how far the second set's median moved against the first, in
the worse direction, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(bench, workloads, seeds) -> dict:
    values = {w: {} for w in workloads}
    for w in workloads:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"{w} seed {seed}: exit {proc.returncode}\n"
                                 f"{proc.stdout}{proc.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: incorrect result\n{proc.stdout}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
    return values


def spread(vals) -> float:
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def print_spread(bench, values) -> None:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w, metrics in values.items():
        for name, vals in metrics.items():
            s = spread(vals)
            print(f"{w:14s} {name:14s} median={statistics.median(vals):.5g} "
                  f"spread={s:.4f} bound={bounds[name]} "
                  f"{'ok' if s < bounds[name] / 3 else 'WIDE'}")


def compare(bench, first, second) -> None:
    for m in bench["end_to_end"]:
        for w in first:
            a = statistics.median(first[w][m["name"]])
            b = statistics.median(second[w][m["name"]])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            print(f"{w:14s} {m['name']:14s} {a:.5g} -> {b:.5g} worse by "
                  f"{worse:+.4f} bound={m['bound']} "
                  f"{'ok' if worse <= m['bound'] else 'REGRESSION'}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--save")
    p.add_argument("--compare", nargs=2)
    args = p.parse_args()
    bench = load_benchmark()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        compare(bench, *sets)
        return 0
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    values = collect(bench, workloads, parse_seeds(args.seeds))
    print_spread(bench, values)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(values, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
