"""Sensitivity check: slow one layer from outside ``src/`` and watch a metric.

    python3 benchmarks/sensitivity.py --layer scheduler.candidates \\
        --metric compile_s --workloads route_heavy,deep_local --seeds 1,2

A slowed layer runs its function ``--times`` times per call (default 2) and
returns the last result, so its own time grows by that factor and its
outputs stay the same.  For each workload and seed the script runs
``run.py`` as is and then with the layer slowed, one run at a time, and
prints the metric's median change next to the metric's bound.  The
workload that exercises the layer should move past the bound; one that
bypasses it should stay within.

With ``--inner`` the script is one slowed benchmark run instead, taking
``run.py``'s arguments after ``--``.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def slow(q, layer: str, times: int):
    """Patch ``layer`` (``module.function``) to run its function ``times`` times."""
    module, attr = layer.split(".")
    owner = getattr(q, module) if module == "scheduler" else q
    original = getattr(owner, attr)

    @functools.wraps(original)
    def repeated(*args, **kwargs):
        for _ in range(times - 1):
            original(*args, **kwargs)
        return original(*args, **kwargs)

    setattr(owner, attr, repeated)


def one_run(workload, seed, seconds, layer=None, times=2) -> dict:
    cmd = [sys.executable, "benchmarks/run.py"]
    if layer:
        cmd = [sys.executable, "benchmarks/sensitivity.py", "--inner", "--layer", layer,
               "--times", str(times), "--"]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: m["value"] for k, m in result["metrics"].items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--layer", required=True,
                   help="module.function as in the per-layer metric names, e.g. "
                        "scheduler.candidates, circuit.parse_qasm, oracle.exact_schedule")
    p.add_argument("--times", type=int, default=2)
    p.add_argument("--inner", action="store_true")
    p.add_argument("--metric", default="compile_s")
    p.add_argument("--workloads")
    p.add_argument("--seeds", default="1")
    p.add_argument("--seconds", type=int)
    p.add_argument("rest", nargs=argparse.REMAINDER)
    args = p.parse_args()
    if args.inner:
        return run.main(args.rest[1:] if args.rest[:1] == ["--"] else args.rest,
                        prepare=lambda q: slow(q, args.layer, args.times))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}[args.metric]
    seconds = args.seconds or spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    for workload in args.workloads.split(","):
        base, slowed = [], []
        for seed in seeds:  # alternate, so drift of the host hits both sides alike
            base.append(one_run(workload, seed, seconds)[args.metric])
            slowed.append(one_run(workload, seed, seconds, args.layer, args.times)[args.metric])
        change = statistics.median(slowed) / statistics.median(base) - 1
        verdict = "past bound" if change > bound else "within bound"
        print(f"{args.layer} x{args.times}  {workload:13s} {args.metric}: "
              f"{statistics.median(base):.4g} -> {statistics.median(slowed):.4g}  "
              f"{change:+.1%} (bound {bound:.0%}, {verdict})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
