"""Command-line entry point: compile, sweep, and oracle-check.

All output is data (JSON / CSV); plotting is left to external tools.
Sweeps fan out over a process pool capped by QCCD_SYNC_THREADS.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import bench
from .circuit import parse_qasm
from .costmodel import CostParams, GateFamily, evaluate
from .device import WeightParams, parse_topology_spec, spec_int, to_graph, topology_from_json
from .events import EventKind
from .mapping import MappingParams, Strategy, initial_mapping
from .oracle import (BoundMode, Infeasible, OracleLimits, exact_schedule,
                     ideal_bounds, random_instance)
from .scheduler import SchedulerParams, schedule
from .state import MachineState


def _parse_gen_spec(spec: str):
    """Generator mini-syntax: name:size[:param=value,...]"""
    parts = spec.split(":")
    where = f"generator spec '{spec}'"
    if len(parts) < 2:
        raise ValueError(f"{where} needs name:size")
    name, size = parts[0], spec_int(where, "size", parts[1])
    kwargs = {}
    for chunk in parts[2:]:
        for kv in chunk.split(","):
            if not kv:
                continue
            k, eq, v = kv.partition("=")
            if not eq:
                raise ValueError(f"{where}: '{kv}' is not param=value")
            kwargs[k] = spec_int(where, f"parameter {k}", v)
    return bench.gen_benchmark(name, size, **kwargs)


def _load_circuit(args):
    if args.gen:
        return _parse_gen_spec(args.gen)
    if args.circuit:
        path = Path(args.circuit)
        return parse_qasm(path.read_text(), name=path.stem)
    raise ValueError("either --gen or --circuit is required")


def _is_topology_file(spec: str) -> bool:
    return spec.endswith(".json") or os.path.exists(spec)


def _load_topology(args):
    spec = args.topology
    if _is_topology_file(spec):
        return topology_from_json(json.loads(Path(spec).read_text()))
    return parse_topology_spec(spec, default_capacity=args.capacity)


def _build_params(args):
    weights = WeightParams(inner_weight=args.inner_weight,
                           shuttle_base=args.shuttle_weight)
    sched_p = SchedulerParams(delta=args.delta)
    map_p = MappingParams(alpha=args.alpha, beta=args.beta,
                          lookahead_k=args.lookahead,
                          strategy=Strategy(args.mapping))
    cost_p = CostParams(gate_family=GateFamily(args.gates), a0=args.a0,
                        swap_gate_multiplier=args.swap_multiplier)
    return weights, sched_p, map_p, cost_p


def run_compile(args, capacity: int | None = None) -> dict:
    """Full pipeline for one configuration; returns the metrics dict.

    With ``capacity`` every trap of the loaded topology holds that many slots."""
    circuit = _load_circuit(args)
    topology = _load_topology(args)
    if capacity is not None:
        topology = topology.with_capacity(capacity)
    weights, sched_p, map_p, cost_p = _build_params(args)
    graph = to_graph(topology, weights)
    mapping = initial_mapping(circuit, graph, map_p)

    t0 = time.perf_counter()
    sched = schedule(circuit, graph, mapping, sched_p)
    compile_ms = (time.perf_counter() - t0) * 1e3

    if args.baseline == "none":
        metrics = evaluate(sched, cost_p)
    else:
        metrics = ideal_bounds(sched, BoundMode(args.baseline), cost_p)
    metrics.compile_ms = compile_ms
    out = metrics.to_dict()

    if args.events_csv:
        with open(args.events_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["kind", "start_us", "duration_us", "trap", "fidelity"])
            for te in metrics.timeline:
                w.writerow([te.event.kind.value, te.start_us, te.duration_us,
                            te.event.traps[0] if te.event.traps else "",
                            "" if te.fidelity is None else te.fidelity])
    if args.snapshot:
        final = MachineState(graph, sched.initial_mapping)
        for ev in sched.events:
            if ev.kind is not EventKind.GATE:
                final.apply_generic_swap(graph.edge(*ev.slots))
        # a relaxed shuttle adds no heat, so the heat is the unrelaxed grade's
        heat = metrics if args.baseline == "none" else evaluate(sched, cost_p)
        snap = {"mapping": {str(q): n for q, n in sorted(final.mapping.items())},
                "spaces": {str(t): sorted(s) for t, s in sorted(final.spaces.items())},
                "nbar": {str(t): v for t, v in sorted(heat.nbar.items())}}
        Path(args.snapshot).write_text(json.dumps(snap, indent=2, sort_keys=True))
    return out


def cmd_compile(args) -> int:
    try:
        out = run_compile(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(f"shuttles={out['shuttles']} swaps={out['swap_gates']} "
          f"makespan_us={out['makespan_us']:.2f} success={out['success_rate']:.6g} "
          f"compile_ms={out['compile_ms']:.1f}")
    if not args.out:
        print(text)
    return 0


SWEEP_AXES = ("topology", "capacity", "gates", "mapping", "delta", "weight-ratio")


def _set_axis(args, axis: str, value: str):
    """Set the swept option on ``args``; returns the capacity override and
    the topology the row names.  A value the axis cannot take raises."""
    capacity = None
    label = args.topology
    if axis == "topology":
        args.topology = label = value
    elif axis == "capacity":
        args.capacity = capacity = int(value)
        if not _is_topology_file(label):  # name the family spec it ran as
            label = f"{label.split(':')[0]}:{capacity}"
    elif axis == "gates":
        args.gates = value
    elif axis == "mapping":
        args.mapping = value
    elif axis == "delta":
        args.delta = float(value)
    elif axis == "weight-ratio":
        args.shuttle_weight = args.inner_weight * float(value)
    return capacity, label


def _sweep_job(payload):
    base, axis, value = payload
    args = argparse.Namespace(**vars(base))
    label = args.topology
    try:
        capacity, label = _set_axis(args, axis, value)
        result = {**run_compile(args, capacity), "status": "ok"}
    except Exception as exc:  # record the failure, a bad value too; keep the sweep going
        result = {"status": f"failed: {exc}"}
    row = {"axis": axis, "value": value, "topology": label,
           "mapping": args.mapping, "gates": args.gates, "delta": args.delta,
           "inner_weight": args.inner_weight, "shuttle_weight": args.shuttle_weight,
           "a0": args.a0, "circuit": args.gen or args.circuit}
    row.update(result)
    return row


def cmd_sweep(args) -> int:
    jobs = [(args, args.axis, v) for v in args.values.split(",")]
    workers = int(os.environ.get("QCCD_SYNC_THREADS", "0")) or None
    if workers == 1 or len(jobs) == 1:
        rows = [_sweep_job(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_job, jobs))  # order-deterministic

    fields = ["axis", "value", "status", "circuit", "topology", "mapping", "gates",
              "delta", "inner_weight", "shuttle_weight", "a0",
              "shuttles", "swap_gates", "space_shifts", "two_qubit_gates",
              "one_qubit_gates", "makespan_us", "success_rate", "compile_ms"]
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.DictWriter(out, fieldnames=fields, extrasaction="ignore")
        w.writeheader()
        for row in rows:
            w.writerow(row)
    finally:
        if args.out:
            out.close()
    return 0 if any(r["status"] == "ok" for r in rows) or not rows else 1


def cmd_oracle_check(args) -> int:
    rng = random.Random(args.seed)
    try:
        limits = OracleLimits(max_depth=args.max_depth)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    done = 0
    while done < args.n:
        circuit, graph, mapping = random_instance(rng)
        t0 = time.perf_counter()
        try:
            opt = exact_schedule(circuit, graph, mapping, limits)
        except ValueError:
            continue  # instance over limits, skip with a fresh draw
        oracle_ms = (time.perf_counter() - t0) * 1e3
        if isinstance(opt, Infeasible):
            continue
        t0 = time.perf_counter()
        try:
            heur = schedule(circuit, graph, mapping)
        except Exception as exc:
            rows.append({"instance": done, "status": f"heuristic failed: {exc}",
                         "oracle_ms": oracle_ms})
            done += 1
            continue
        heur_cost = heur.inserted_weight
        opt_cost = opt.inserted_weight
        ratio = heur_cost / opt_cost if opt_cost > 0 else (1.0 if heur_cost == 0 else float("inf"))
        rows.append({"instance": done, "status": "ok", "heuristic_cost": heur_cost,
                     "optimal_cost": opt_cost, "ratio": ratio,
                     "heuristic_ms": (time.perf_counter() - t0) * 1e3,
                     "oracle_ms": oracle_ms})
        done += 1

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.DictWriter(out, fieldnames=["instance", "status", "heuristic_cost",
                                            "optimal_cost", "ratio", "heuristic_ms",
                                            "oracle_ms"],
                           extrasaction="ignore")
        w.writeheader()
        for row in rows:
            w.writerow(row)
    finally:
        if args.out:
            out.close()
    ratios = [r["ratio"] for r in rows if r.get("status") == "ok"]
    if ratios:
        mean = sum(ratios) / len(ratios)
        optimal = sum(1 for r in ratios if r <= 1.0 + 1e-9)
        print(f"instances={len(ratios)} mean_ratio={mean:.4f} "
              f"max_ratio={max(ratios):.4f} optimal_fraction={optimal / len(ratios):.2%}",
              file=sys.stderr)
    return 0


def _add_compile_flags(p):
    p.add_argument("--circuit", help="OpenQASM 2.0 file")
    p.add_argument("--gen", help="generator spec name:size[:k=v,...]")
    p.add_argument("--topology", default="G2x2:22",
                   help="family spec (L4:22, G2x3:17, S4:22) or JSON file")
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--mapping", choices=[s.value for s in Strategy], default="gather")
    p.add_argument("--gates", choices=[f.value for f in GateFamily], default="FM")
    p.add_argument("--delta", type=float, default=0.001)
    p.add_argument("--inner-weight", type=float, default=0.001)
    p.add_argument("--shuttle-weight", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--lookahead", type=int, default=8)
    p.add_argument("--a0", type=float, default=1e-4)
    p.add_argument("--swap-multiplier", type=int, default=1)
    p.add_argument("--baseline", choices=["none"] + [m.value for m in BoundMode],
                   default="none")
    p.add_argument("--out")
    p.add_argument("--events-csv")
    p.add_argument("--snapshot", help="write final mapping/occupancy/nbar JSON")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qccdc", description="QCCD shuttle/SWAP co-optimizing compiler")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compile", help="compile one circuit and report metrics")
    _add_compile_flags(pc)

    ps = sub.add_parser("sweep", help="run one compile per axis value, emit CSV")
    _add_compile_flags(ps)
    ps.add_argument("--axis", required=True, choices=SWEEP_AXES)
    ps.add_argument("--values", required=True, help="comma-separated axis values")

    po = sub.add_parser("oracle-check",
                        help="compare heuristic vs exact cost on random tiny instances")
    po.add_argument("--n", type=int, default=100)
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--max-depth", type=int, default=8)
    po.add_argument("--out")

    args = parser.parse_args(argv)
    if args.command == "compile":
        return cmd_compile(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "oracle-check":
        return cmd_oracle_check(args)
    return 2  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
