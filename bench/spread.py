"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload W [--seeds 1-10] [--seconds S]

Runs bench/run.py once per seed, one run at a time, and prints per metric
the median, the quartiles (statistics.quantiles(values, n=4)) and the
inter-quartile range as a share of the median, next to the metric's bound
from BENCHMARK.json.  Each run's result line is appended to
bench/out/spread.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)

    values: dict[str, list[float]] = {}
    failed_shares = []
    (BENCH / "out").mkdir(exist_ok=True)
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(BENCH / "out" / "spread.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, "wall_s": wall,
                                 "result": result}) + "\n")
        if not result["correct"]:
            print(proc.stderr, end="")
        failed_shares.append(result["failed"] / result["attempted"])
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")
    print(f"failed shares: {sorted(set(failed_shares))}")


if __name__ == "__main__":
    main()
