"""Compiler benchmark: one workload, one seed, one single-threaded process.

    python3 benchmarks/run.py --workload route_heavy --seed 1 --seconds 20 --trace 0

Imports ``qccdc`` from the ``src/`` next to this directory, builds the
workload's inputs from the seed, then repeats passes over the workload's
jobs for ``--seconds``: compile (``parse_qasm`` -> ``to_graph`` ->
``initial_mapping`` -> ``schedule`` -> ``evaluate``), verify with the
program's own checkers (``replay``, and ``exact_schedule`` on
``oracle_gap``), and check every output with the independent checker in
``checker.py``.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics from wrapped layer
functions with ``--trace 1``.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import qccdc; print(time.perf_counter() - t)")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
QUALITY = ("shuttles", "swap_gates", "makespan_us", "neg_log10_success")
UNITS = {"setup_s": "s", "compile_s": "s", "verify_s": "s", "peak_rss_mb": "MB",
         "shuttles": "count", "swap_gates": "count", "makespan_us": "sim_us",
         "neg_log10_success": "log10"}


def import_qccdc():
    """Import the program from this checkout's src/, or exit non-zero."""
    if not (SRC / "qccdc" / "__init__.py").is_file():
        sys.exit(f"error: no qccdc package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qccdc
    import_s = time.perf_counter() - t0
    where = Path(qccdc.__file__).resolve().parent
    if where != (SRC / "qccdc").resolve():
        sys.exit(f"error: imported qccdc from {where}, not from {SRC}")
    return qccdc, where, import_s


def fresh_import_s() -> float:
    """Seconds to import qccdc in a new interpreter, timed inside it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def inserted_ops(sched) -> int:
    return sum(ev.kind.value != "gate" for ev in sched.events)


class Bench:
    """Runs passes over one workload's inputs and keeps the measurements.

    An operation is one compile job or one exact solve.  It fails when the
    program raises or when its output fails a check; ``wrong`` counts the
    second kind, which makes the run incorrect.
    """

    def __init__(self, q, inputs, tracer: Tracer | None):
        self.q = q
        self.inputs = inputs
        self.tracer = tracer
        self.cost = q.CostParams()
        self.heat = q.HeatParams(k1=self.cost.k1, k2=self.cost.k2)
        self.limits = q.OracleLimits()
        self.attempted = self.failed = self.wrong = 0
        self.reports: list[str] = []
        self.digests: dict[object, str] = {}
        self.compile_samples: list[float] = []
        self.verify_samples: list[float] = []
        self.quality: dict | None = None

    def op(self, label, problems, raised=False):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += not raised
            if len(self.reports) < 20:
                self.reports.append(f"{label}: {problems[0]}")

    def phase(self, name, fn):
        """Run ``fn`` as one timed phase; returns (result, seconds, trace record).

        Garbage left by the previous phase is collected first, so every phase
        starts from the same collector state and pays only for its own.
        """
        gc.collect()
        if self.tracer:
            self.tracer.begin(name)
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        record = self.tracer.take(seconds) if self.tracer else None
        return result, seconds, record

    def attempt(self, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # an operation that raises is counted, not fatal
            return f"{type(exc).__name__}: {exc}"

    # -- compile ------------------------------------------------------------

    def compile_circuit(self, inp):
        q = self.q
        circuit = q.parse_qasm(inp.qasm, name=inp.job.name)
        graph = q.to_graph(inp.topology)
        mapping = q.initial_mapping(circuit, graph,
                                    q.MappingParams(strategy=q.Strategy(inp.job.strategy)))
        sched = q.schedule(circuit, graph, mapping, q.SchedulerParams(), self.heat)
        return circuit, mapping, sched, q.evaluate(sched, self.cost)

    def compile_instance(self, inp):
        q = self.q
        sched = q.schedule(inp.circuit, inp.graph, inp.mapping, q.SchedulerParams(), self.heat)
        return None, inp.mapping, sched, q.evaluate(sched, self.cost)

    def compile_all(self, compile_one):
        outputs, seconds, record = self.phase(
            "compile", lambda: [self.attempt(compile_one, inp) for inp in self.inputs])
        if record is not None:
            record["inserted_ops"] = sum(inserted_ops(out[2]) for out in outputs
                                         if isinstance(out, tuple))
        self.compile_samples.append(seconds)
        return outputs

    def check_compiled(self, key, circuit, topology, out) -> list[str]:
        """Independent checks of one compiled schedule and its metrics."""
        _, mapping, sched, metrics = out
        problems = []
        if sched.initial_mapping != mapping:
            problems.append("schedule's initial mapping differs from initial_mapping()")
        found, summary = checker.check_schedule(circuit, topology, sched.initial_mapping,
                                                sched.events)
        problems += found
        if summary:
            ideal = self.q.ideal_bounds(sched, self.q.BoundMode.IDEAL, self.cost)
            problems += checker.check_metrics(summary, sched.metrics, metrics,
                                              ideal.success_rate)
        problems += self.check_digest(key, sched)
        return problems

    def check_digest(self, key, sched) -> list[str]:
        d = checker.digest(sched.events)
        if self.digests.setdefault(key, d) != d:
            return ["event digest differs from the first pass"]
        return []

    def record_quality(self, passed):
        """Quality sums over the first pass's outputs that passed every check."""
        if self.quality is not None:
            return
        self.quality = dict.fromkeys(QUALITY, 0)
        for metrics in passed:
            self.quality["shuttles"] += metrics.shuttles
            self.quality["swap_gates"] += metrics.swap_gates
            self.quality["makespan_us"] += metrics.makespan_us
            self.quality["neg_log10_success"] -= math.log10(metrics.success_rate)

    # -- passes -------------------------------------------------------------

    def circuit_pass(self):
        q = self.q
        outputs = self.compile_all(self.compile_circuit)
        for _ in range(workloads.CIRCUIT_VERIFY_REPEATS):
            verdicts, seconds, _ = self.phase(
                "verify", lambda: [q.replay(out[2]) if isinstance(out, tuple) else None
                                   for out in outputs])
            self.verify_samples.append(seconds)
        passed = []
        for inp, out, verdict in zip(self.inputs, outputs, verdicts):
            name = inp.job.name
            if isinstance(out, str):
                self.op(name, [out], raised=True)
                continue
            problems = checker.check_gate_counts(inp.generated, inp.job.gen, inp.job.size,
                                                 dict(inp.job.params))
            problems += checker.check_parsed(out[0], inp.circuit)
            problems += [f"replay: {v}" for v in verdict]
            problems += self.check_compiled(name, inp.circuit, inp.topology, out)
            self.op(name, problems)
            if not problems:
                passed.append(out[3])
        self.record_quality(passed)

    def oracle_pass(self):
        q = self.q
        for _ in range(workloads.ORACLE_COMPILE_REPEATS):
            outputs = self.compile_all(self.compile_instance)
            passed = []
            for i, (inp, out) in enumerate(zip(self.inputs, outputs)):
                if isinstance(out, str):
                    self.op(f"instance {i}", [out], raised=True)
                    continue
                problems = self.check_compiled(("heuristic", i), inp.circuit,
                                               inp.graph.topology, out)
                self.op(f"instance {i}", problems)
                if not problems:
                    passed.append(out[3])
            self.record_quality(passed)

        def verify():
            results = []
            for inp, out in zip(self.inputs, outputs):
                heur = q.replay(out[2]) if isinstance(out, tuple) else None
                exact = self.attempt(q.exact_schedule, inp.circuit, inp.graph, inp.mapping,
                                     self.limits)
                exact_replay = q.replay(exact) if isinstance(exact, q.Schedule) else None
                results.append((heur, exact, exact_replay))
            return results

        results, seconds, _ = self.phase("verify", verify)
        self.verify_samples.append(seconds)
        for i, (inp, out, (heur, exact, exact_replay)) in enumerate(
                zip(self.inputs, outputs, results)):
            label = f"exact {i}"
            if isinstance(exact, str):
                self.op(label, [exact], raised=True)
                continue
            problems = [f"heuristic replay: {v}" for v in heur or ()]
            heur_fits = isinstance(out, tuple) and inserted_ops(out[2]) <= self.limits.max_depth
            if isinstance(exact, q.Infeasible):
                if heur_fits:
                    problems.append("oracle reports no schedule within its depth limit, "
                                    "but the heuristic found one")
            else:
                problems += [f"replay: {v}" for v in exact_replay]
                found, summary = checker.check_schedule(inp.circuit, inp.graph.topology,
                                                        exact.initial_mapping, exact.events)
                problems += found
                if summary and summary["counts"] != exact.metrics:
                    problems.append("exact schedule's Schedule.metrics disagree with the replay")
                if heur_fits and exact.inserted_weight > out[2].inserted_weight + 1e-9:
                    problems.append(f"exact cost {exact.inserted_weight} exceeds the "
                                    f"heuristic's {out[2].inserted_weight}")
                problems += self.check_digest(("exact", i), exact)
            self.op(label, problems)


def end_to_end(bench, setup_s) -> dict:
    """Phase times are the mean over the run's samples, not the median.  A
    shared host can alternate between two speeds about 30 % apart every
    10-20 s (seen on a 2-vCPU Xeon VM); a run's median then lands on one of
    the two, while its mean follows the share of time spent in each and
    spreads less from run to run."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": setup_s,
            "compile_s": statistics.fmean(bench.compile_samples),
            "verify_s": statistics.fmean(bench.verify_samples),
            "peak_rss_mb": rss_mb, **bench.quality}


def per_layer(log: list[dict], generate_s: float) -> dict:
    """Per-pass layer metrics, the mean over the traced phases."""
    compile_log = [e for e in log if e["phase"] == "compile"]
    verify_log = [e for e in log if e["phase"] == "verify"]

    def mean(entries, f):
        return statistics.fmean(f(e) for e in entries)

    def secs(name, i=1):
        return lambda e: e["totals"].get(name, (0, 0.0, 0.0))[i]

    def calls(name):
        return secs(name, 0)

    def count(name):
        return lambda e: e["counts"].get(name, 0)

    def moves(e):
        return calls("candidates")(e) - calls("plan_escape")(e)

    def ratio(e):
        n = count("edges_classified")(e)
        return count("valid_candidates")(e) / n if n else 0.0

    c, v = compile_log, verify_log
    return {
        "bench.generate_s": generate_s,
        "bench.traced_compile_s": mean(c, lambda e: e["seconds"]),
        "bench.traced_verify_s": mean(v, lambda e: e["seconds"]),
        "circuit.parse_qasm_s": mean(c, secs("parse_qasm")),
        "circuit.gates_parsed": mean(c, count("gates_parsed")),
        "circuit.build_dag_s": mean(c, secs("build_dag")),
        "device.to_graph_s": mean(c, secs("to_graph")),
        "device.edges": mean(c, count("edges")),
        "mapping.initial_mapping_s": mean(c, secs("initial_mapping")),
        "scheduler.schedule_s": mean(c, secs("schedule")),
        "scheduler.self_s": mean(c, secs("schedule", 2)),
        "scheduler.distance_table_s": mean(c, secs("distance_table")),
        "scheduler.candidates_s": mean(c, secs("candidates")),
        "scheduler.candidates_calls": mean(c, calls("candidates")),
        "scheduler.edges_classified": mean(c, count("edges_classified")),
        "scheduler.valid_ratio": mean(c, ratio),
        "state.classify_calls": mean(c, count("classify")),
        "scheduler.heuristic_h_s": mean(c, secs("heuristic_h")),
        "scheduler.heuristic_h_calls": mean(c, calls("heuristic_h")),
        "scheduler.plan_escape_s": mean(c, secs("plan_escape")),
        "scheduler.plan_escape_calls": mean(c, calls("plan_escape")),
        "scheduler.planned_ops": mean(c, count("planned_ops")),
        "scheduler.heuristic_moves": mean(c, moves),
        "scheduler.planner_ops": mean(c, lambda e: e["inserted_ops"] - moves(e)),
        "state.apply_generic_swap_calls": mean(c, count("apply_generic_swap")),
        "costmodel.evaluate_s": mean(c, secs("evaluate")),
        "costmodel.events": mean(c, count("events")),
        "validate.replay_s": mean(v, secs("replay")),
        "oracle.exact_schedule_s": mean(v, secs("exact_schedule")),
        "oracle.exact_schedule_calls": mean(v, calls("exact_schedule")),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, prepare=None) -> int:
    """Run one benchmark; ``prepare(qccdc)`` may patch the program first."""
    args = parse_args(argv)
    q, where, import_s = import_qccdc()
    print(f"qccdc imported from {where}", flush=True)
    if prepare is not None:
        prepare(q)

    # set-up runs SETUP_REPEATS times: the import in fresh interpreters
    # besides this one, the inputs in this process
    import_times = [import_s] + [fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workloads.build_inputs(q, args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)
    generate_s = statistics.median(setup_times)

    tracer = Tracer() if args.trace else None
    bench = Bench(q, inputs, tracer)
    one_pass = bench.oracle_pass if args.workload == "oracle_gap" else bench.circuit_pass
    passes = 0
    if tracer:
        tracer.install(q)
    # whole passes until the window is used: stop when less than half a
    # pass's time is left, so a run ends within half a pass of --seconds
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            t0 = time.perf_counter()
            one_pass()
            passes += 1
            now = time.perf_counter()
            if now + (now - t0) / 2 >= deadline:
                break
    finally:
        if tracer:
            tracer.uninstall()

    if args.trace:
        metrics = per_layer(tracer.phase_log, generate_s)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = end_to_end(bench, statistics.median(import_times) + generate_s)
        units = UNITS
    for line in bench.reports:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": bench.wrong == 0, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "qccdc": str(where), "passes": passes,
              "import_samples": import_times, "generate_samples": setup_times,
              "compile_samples": bench.compile_samples,
              "verify_samples": bench.verify_samples, "result": result}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.dump(OUT / f"trace-{stem}.json", record)
    print(f"passes={passes} compile_samples={len(bench.compile_samples)} "
          f"record={OUT / f'run-{stem}.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
