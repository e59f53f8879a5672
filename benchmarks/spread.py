"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --workloads route_heavy,oracle_gap --seeds 1-5

Runs ``run.py`` once per workload and seed, one run at a time, and prints
for each metric the median, the interquartile range as a share of the
median (``statistics.quantiles(values, n=4)``), and the metric's bound from
BENCHMARK.json.  A spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares, walls = set(), []
        for seed in seeds_of(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
            walls.append(time.perf_counter() - t0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed shares {sorted(shares)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[name] / 3 else "  <-- above a third of the bound"
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:18s} median {med:14.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.2f}{flag}")
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
