"""Record a parent-versus-change benchmark comparison as ``BENCH_<n>.json``.

    python3 tools/bench_record.py --parent ../parent --change . --runs 10 \\
        --first-seed 11 --out BENCH_10.json

``--parent`` and ``--change`` are two checkouts of this repository.  For
every workload of ``BENCHMARK.json``, each of ``--runs`` seeds from
``--first-seed`` on runs ``benchmarks/run.py`` for the file's
``run_seconds`` once in each checkout with that seed: a pair.  Pairs
alternate which side runs first, so both sides share the host's slow and
fast spells.  Every run starts from a fresh copy of its checkout without
``__pycache__`` directories and writes no bytecode, so it compiles the
program's own modules from source and reads no cache an earlier run left;
the standard library and numpy load from their installed caches, as in a
plain run of ``benchmarks/run.py``.  The output holds,
per workload and side, the median and quartiles of the eight end-to-end
metrics, the operations attempted and failed and whether every run was
correct; per workload, in how many pairs the change read lower on each
metric; and the Python, numpy and CPU the runs used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmarks/run.py`` run in a fresh copy of ``checkout``; its
    last output line as a dict.

    The copy leaves out ``.git`` and every ``__pycache__``, and the run
    writes no bytecode, so it reads no cache of the program that an earlier
    run left in either checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(checkout, copy, ignore=shutil.ignore_patterns(".git", "__pycache__"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPYCACHEPREFIX", None)
        proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds)],
                              cwd=copy, env=env, capture_output=True, text=True,
                              check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(results: list[dict]) -> dict:
    out = {"runs": len(results),
           "correct": all(r["correct"] for r in results),
           "attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "metrics": {}}
    for name in results[0]["metrics"]:
        values = sorted(r["metrics"][name]["value"] for r in results)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out["metrics"][name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                "unit": results[0]["metrics"][name]["unit"]}
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    record = {"python": platform.python_version(), "numpy": numpy.__version__,
              "cpu": cpu_model(), "runs": args.runs, "seconds": seconds,
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {"parent": [], "change": []}
        for i, seed in enumerate(record["seeds"]):
            order = [("parent", args.parent), ("change", args.change)]
            for side, checkout in order[::-1] if i % 2 else order:
                sides[side].append(run_once(checkout, workload, seed, seconds))
                print(f"{workload} seed {seed} {side} done", file=sys.stderr, flush=True)
        record["workloads"][workload] = {side: summary(results)
                                         for side, results in sides.items()}
        # every end-to-end metric is lower-better
        record["workloads"][workload]["change_lower_in_pairs"] = {
            name: sum(c["metrics"][name]["value"] < p["metrics"][name]["value"]
                      for p, c in zip(sides["parent"], sides["change"]))
            for name in sides["parent"][0]["metrics"]}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
