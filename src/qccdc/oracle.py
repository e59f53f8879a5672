"""Exact scheduling for tiny instances, plus idealized cost bounds.

``exact_schedule`` runs A* (Hart, Nilsson & Raphael 1968) over
(occupancy, executed-gate-set) states, expanding every valid generic swap.
Executable gates are always taken at once, since execution is free and only
unlocks successors.  The objective is lexicographic: total inserted edge
weight (the heuristic's own currency), then fewer shuttles, then fewer SWAP
gates.

The lower bound h is the most trap hops between the two qubits of any
unexecuted two-qubit gate, with hops counted by BFS over the trap pairs
joined by a shuttle path.  Such a gate needs at least h shuttles, and each
weighs at least w_min, the smallest shuttle-edge weight; so a state is
pushed with key ``(weight + h * w_min, shuttles + h, swaps)``.  w_min is
shrunk by a factor ``1 - 1e-9`` so that the float product never rounds above
an exact float sum of h shuttle weights.  The bound is consistent: a
shuttle moves one qubit one hop, so it lowers h by at most 1 while adding
at least w_min and one shuttle; a SWAP or a space shift moves no qubit
between traps, so it changes neither h nor which gates can run.  That is
also why gate closure and h are recomputed only after a shuttle, and then
only from the gates on the moved qubit and the successors of gates that run.

Ties between equal-cost paths are broken by the edge sequence itself, each
edge written (u, v) with u < v and sequences compared lexicographically:
heap entries carry the path right after the key, and a state keeps the
smallest (cost, path) that reached it.  Among equal-cost optima the search
therefore returns the smallest edge sequence, deterministically.  States
are deduplicated on (occupancy, executed set) regardless of depth, so the
depth limit ``max_depth`` applies to the cheapest path to each state.
"""

from __future__ import annotations

import enum
import heapq
import random
from dataclasses import dataclass

from .circuit import Circuit, build_dag
from .device import EDGE_KINDS, DeviceGraph, WeightParams, linear_topology, to_graph
from .events import EventKind
from .scheduler import Schedule
from .state import MachineState, run_ready_gates
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
                   limits: OracleLimits | None = None) -> Schedule | Infeasible:
    """Minimum inserted-weight schedule by A* search, or Infeasible."""
    limits = limits or OracleLimits()
    gates = circuit.gates
    two_q = [g.id for g in gates if g.is_two_qubit]
    if graph.n_nodes > limits.max_nodes:
        raise ValueError(f"{graph.n_nodes} slots exceed the oracle limit {limits.max_nodes}")
    if len(two_q) > limits.max_gates:
        raise ValueError(f"{len(two_q)} two-qubit gates exceed the oracle limit")

    on_qubit = build_dag(circuit).on_qubit
    preds: list[set[int]] = [set() for _ in gates]
    succ: list[set[int]] = [set() for _ in gates]
    for seq in on_qubit:
        for p, s in zip(seq, seq[1:]):
            preds[s].add(p)
            succ[p].add(s)
    all_gates = frozenset(g.id for g in gates)
    pairs = [g.qubits if g.is_two_qubit else None for g in gates]

    node_trap = graph.node_trap
    hops = _trap_hops(graph)
    moves = [(e.u, e.v, e.weight, EDGE_KINDS[cls])
             for e, cls in zip(graph.edges, graph.edge_class.tolist())]
    # shrunk so that h * w_min stays below any float sum of h shuttle weights
    w_min = min((e.weight for e in graph.edges if e.is_shuttle), default=0.0) * (1 - 1e-9)

    def close(slots: tuple, executed: frozenset, pending) -> tuple[frozenset, int]:
        """Run the gates in ``pending``, and the successors of any that run,
        once their predecessors have run and their qubits share a trap (the
        rule of ``run_ready_gates``).  Returns the executed set and the bound
        h: the most trap hops between the qubits of an unexecuted gate."""
        done = set(executed)
        stack = list(pending)
        while stack:
            gid = stack.pop()
            if gid in done or not preds[gid] <= done:
                continue
            pair = pairs[gid]
            if pair and node_trap[slots.index(pair[0])] != node_trap[slots.index(pair[1])]:
                continue
            done.add(gid)
            stack.extend(succ[gid])
        h = 0
        for gid in two_q:
            if gid not in done:
                a, b = pairs[gid]
                h = max(h, hops[node_trap[slots.index(a)]][node_trap[slots.index(b)]])
        return frozenset(done), h

    start_slots = tuple(MachineState(graph, mapping).slot_qubit)
    start_exec, start_h = close(start_slots, frozenset(),
                                [g.id for g in gates if not preds[g.id]])
    start_cost = (0.0, 0, 0)
    best_seen: dict[tuple, tuple] = {(start_slots, start_exec): (start_cost, ())}
    heap = [((start_h * w_min, start_h, 0), (), start_cost, start_slots, start_exec, start_h)]

    while heap:
        _, path, cost, slots, executed, h = heapq.heappop(heap)
        if best_seen[(slots, executed)] < (cost, path):
            continue
        if executed == all_gates:
            return _replay_path(circuit, graph, mapping, path)
        if len(path) >= limits.max_depth:
            continue
        weight, shuttles, swaps = cost
        for u, v, w, kinds in moves:
            kind = kinds[(slots[u] is not None) + (slots[v] is not None)]
            if kind is None:
                continue
            new_slots = list(slots)
            new_slots[u], new_slots[v] = slots[v], slots[u]
            new_slots = tuple(new_slots)
            if kind is EventKind.SHUTTLE:
                # only a shuttle changes a qubit's trap: gates on the moved
                # qubit may now run, and the bound may change
                moved = slots[u] if slots[u] is not None else slots[v]
                pending = [gid for gid in on_qubit[moved] if gid not in executed]
                new_exec, new_h = close(new_slots, executed, pending) if pending \
                    else (executed, h)
                new_cost = (weight + w, shuttles + 1, swaps)
            else:
                new_exec, new_h = executed, h
                new_cost = (weight + w, shuttles, swaps + (kind is EventKind.SWAP))
            new_path = path + ((u, v),)
            key = (new_slots, new_exec)
            seen = best_seen.get(key)
            if seen is not None and seen <= (new_cost, new_path):
                continue
            best_seen[key] = (new_cost, new_path)
            heapq.heappush(heap, ((new_cost[0] + new_h * w_min, new_cost[1] + new_h,
                                   new_cost[2]), new_path, new_cost, new_slots, new_exec,
                                  new_h))
    return Infeasible(limits.max_depth)


def _trap_hops(graph: DeviceGraph) -> list[list[int]]:
    """Trap-to-trap hop counts over the shuttle paths, by BFS from each trap."""
    n = len(graph.topology.traps)
    hops = []
    for src in range(n):
        dist = {src: 0}
        queue = [src]
        for t in queue:  # the queue grows while it is walked
            for nb, _ in graph.trap_adj[t]:
                if nb not in dist:
                    dist[nb] = dist[t] + 1
                    queue.append(nb)
        hops.append([dist[t] for t in range(n)])
    return hops


def _replay_path(circuit, graph, mapping, path) -> Schedule:
    """Turn an edge sequence into a full event list (gates run greedily)."""
    state = MachineState(graph, mapping)
    dag = build_dag(circuit)
    events = []
    run_ready_gates(state, dag, events)
    for u, v in path:
        events.append(state.apply_generic_swap(graph.edge(u, v)))
        run_ready_gates(state, dag, events)
    return Schedule(events, circuit, graph, dict(mapping))


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
