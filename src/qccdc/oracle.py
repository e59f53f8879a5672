"""Exact brute-force scheduling for tiny instances, plus idealized cost bounds.

The exact search runs uniform-cost search over (occupancy, executed-gate-set)
states, expanding every valid generic swap; executable gates are always taken
immediately since execution is free and only unlocks successors.  The
objective is total inserted edge weight (the heuristic's own currency), with
ties broken by fewer shuttles, then fewer SWAP gates, then the lexicographic
action sequence, so results are deterministic.
"""

from __future__ import annotations

import enum
import heapq
import random
from dataclasses import dataclass

from .circuit import Circuit, build_dag
from .device import EDGE_KINDS, DeviceGraph, EdgeKind, WeightParams, linear_topology, to_graph
from .scheduler import Schedule
from .state import HeatParams, MachineState, run_ready_gates
from .costmodel import CostParams, Metrics, evaluate


@dataclass(frozen=True)
class OracleLimits:
    max_depth: int = 8     # generic swaps along any schedule
    max_nodes: int = 12    # total slots in the device graph
    max_gates: int = 5     # two-qubit gates in the circuit


@dataclass(frozen=True)
class Infeasible:
    """No valid schedule exists within the depth limit."""
    depth: int


class BoundMode(enum.Enum):
    PERFECT_SHUTTLE = "perfect-shuttle"
    PERFECT_SWAP = "perfect-swap"
    IDEAL = "ideal"


def exact_schedule(circuit: Circuit, graph: DeviceGraph, mapping: dict[int, int],
                   limits: OracleLimits | None = None,
                   heat: HeatParams | None = None) -> Schedule | Infeasible:
    """Minimum inserted-weight schedule by exhaustive search, or Infeasible."""
    limits = limits or OracleLimits()
    heat = heat or HeatParams()
    two_q = [g for g in circuit.gates if g.is_two_qubit]
    if graph.n_nodes > limits.max_nodes:
        raise ValueError(f"{graph.n_nodes} slots exceed the oracle limit {limits.max_nodes}")
    if len(two_q) > limits.max_gates:
        raise ValueError(f"{len(two_q)} two-qubit gates exceed the oracle limit")

    dag = build_dag(circuit)
    preds: list[set[int]] = [set() for _ in circuit.gates]
    for g in circuit.gates:
        for s in dag.succ[g.id]:
            preds[s].add(g.id)
    all_gates = frozenset(g.id for g in circuit.gates)

    base = MachineState(graph, mapping, heat)
    node_trap = graph.node_trap
    edge_class = graph.edge_class.tolist()

    def run_free_gates(slots: tuple, executed: frozenset) -> frozenset:
        """Close under free gate execution (occupancy is unaffected): a gate
        runs once its predecessors have and its qubits share a trap, the rule
        of ``run_ready_gates`` read from the search's slot tuples."""
        node_of = {q: i for i, q in enumerate(slots) if q is not None}
        changed = True
        done = set(executed)
        while changed:
            changed = False
            for g in circuit.gates:
                if g.id in done or not preds[g.id] <= done:
                    continue
                if g.is_two_qubit and \
                        node_trap[node_of[g.qubits[0]]] != node_trap[node_of[g.qubits[1]]]:
                    continue
                done.add(g.id)
                changed = True
        return frozenset(done)

    start_slots = tuple(base.slot_qubit)
    start_exec = run_free_gates(start_slots, frozenset())
    start_cost = (0.0, 0, 0)
    best_seen: dict[tuple, tuple] = {(start_slots, start_exec): start_cost}
    counter = 0
    heap = [(start_cost, counter, start_slots, start_exec, ())]

    while heap:
        cost, _, slots, executed, path = heapq.heappop(heap)
        if best_seen.get((slots, executed), cost) < cost:
            continue
        if executed == all_gates:
            return _replay_path(circuit, graph, mapping, heat, path)
        if len(path) >= limits.max_depth:
            continue
        for e, cls in zip(graph.edges, edge_class):
            kind = EDGE_KINDS[cls][(slots[e.u] is not None) + (slots[e.v] is not None)]
            if kind is EdgeKind.INVALID:
                continue
            new_slots = list(slots)
            new_slots[e.u], new_slots[e.v] = new_slots[e.v], new_slots[e.u]
            new_slots = tuple(new_slots)
            new_exec = run_free_gates(new_slots, executed)
            new_cost = (cost[0] + e.weight,
                        cost[1] + (1 if kind is EdgeKind.SHUTTLE else 0),
                        cost[2] + (1 if kind is EdgeKind.QUBIT_SWAP else 0))
            key = (new_slots, new_exec)
            if key in best_seen and best_seen[key] <= new_cost:
                continue
            best_seen[key] = new_cost
            counter += 1
            heapq.heappush(heap, (new_cost, counter, new_slots, new_exec,
                                  path + ((e.u, e.v),)))
    return Infeasible(limits.max_depth)


def _replay_path(circuit, graph, mapping, heat, path) -> Schedule:
    """Turn an edge sequence into a full event list (gates run greedily)."""
    state = MachineState(graph, mapping, heat)
    dag = build_dag(circuit)
    events = []
    run_ready_gates(state, dag, events)
    for u, v in path:
        events.append(state.apply_generic_swap(graph.edge(u, v)))
        run_ready_gates(state, dag, events)
    return Schedule(events, circuit, graph, dict(mapping), heat)


def ideal_bounds(sched: Schedule, mode: BoundMode,
                 params: CostParams | None = None) -> Metrics:
    """Re-evaluate a schedule with inserted-operation costs relaxed."""
    relax_swap = mode in (BoundMode.PERFECT_SWAP, BoundMode.IDEAL)
    relax_shuttle = mode in (BoundMode.PERFECT_SHUTTLE, BoundMode.IDEAL)
    return evaluate(sched, params, relax_swap=relax_swap, relax_shuttle=relax_shuttle)


def random_instance(rng: random.Random, *, max_traps: int = 3, max_capacity: int = 3,
                    max_gates: int = 4):
    """A tiny random routing instance: (circuit, graph, mapping).

    Linear chain of 2..max_traps traps, random placement with at least one
    free space, and up to max_gates random two-qubit gates.
    """
    from .circuit import Gate

    n_traps = rng.randint(2, max_traps)
    capacity = rng.randint(2, max_capacity)
    topo = linear_topology(n_traps, capacity)
    graph = to_graph(topo, WeightParams())

    n_slots = n_traps * capacity
    n_qubits = rng.randint(2, n_slots - 1)  # keep at least one space
    slots = rng.sample(range(n_slots), n_qubits)
    mapping = {q: s for q, s in enumerate(sorted(slots))}

    n_gates = rng.randint(1, max_gates)
    gates = []
    for i in range(n_gates):
        a, b = rng.sample(range(n_qubits), 2)
        gates.append(Gate(i, "cx", (a, b)))
    circuit = Circuit(n_qubits, tuple(gates), name="random")
    return circuit, graph, mapping
