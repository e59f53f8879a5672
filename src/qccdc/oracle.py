"""Exact scheduling for tiny instances, plus idealized cost bounds.

``exact_schedule`` runs A* (Hart, Nilsson & Raphael 1968) over
(occupancy, executed-gate-set) states, expanding every valid generic swap.
Executable gates are always taken at once, since execution is free and only
unlocks successors.  The objective is lexicographic: total inserted edge
weight (the heuristic's own currency), then fewer shuttles, then fewer SWAP
gates.

The lower bound h is the largest sum of trap hops over any set of
unexecuted two-qubit gates on pairwise disjoint qubits (``_hop_bound``).
Disjoint gates need disjoint shuttles, each weighing at least w_min, the
smallest shuttle-edge weight, so a state is pushed with key ``(weight + h
* w_min, shuttles + h, swaps)``; w_min is shrunk by a factor ``1 - 1e-9``
so that the float product never rounds above an exact float sum of h
shuttle weights.  The bound is consistent: a shuttle moves one qubit one
hop, so it lowers each set's sum by at most 1 while adding at least w_min
and one shuttle; a gate runs only at 0 hops; a SWAP or a space shift moves
no qubit between traps.  With a consistent bound A* still returns the
least (cost, path) under the dedup and depth rules below, so the bound
sets how many states are expanded, not the result.  States carry each
qubit's trap; after a shuttle, closure and h start from the gates on the
moved qubit, and as the executed set was closed before the move, they
depend only on the new traps and the executed set and are computed once
per such pair in each call.

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
from .device import EDGE_KINDS, SHUTTLE_EDGE, DeviceGraph, WeightParams, linear_topology, to_graph
from .events import EventKind
from .scheduler import Schedule
from .state import MachineState, run_ready_gates
from .costmodel import CostParams, Metrics, evaluate


@dataclass(frozen=True)
class OracleLimits:
    max_depth: int = 8     # generic swaps along any schedule
    max_nodes: int = 12    # total slots in the device graph
    max_gates: int = 5     # two-qubit gates in the circuit

    def __post_init__(self):
        for name in ("max_depth", "max_nodes", "max_gates"):
            if type(value := getattr(self, name)) is not int or value < 1:
                raise ValueError(f"{name} must be an int >= 1, not {value!r}")


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
    n_two_q = sum(g.is_two_qubit for g in gates)
    if graph.n_nodes > limits.max_nodes:
        raise ValueError(f"{graph.n_nodes} slots exceed the oracle limit {limits.max_nodes}")
    if n_two_q > limits.max_gates:
        raise ValueError(f"{n_two_q} two-qubit gates exceed the oracle limit")
    start_slots = tuple(MachineState(graph, mapping, circuit.n_qubits).slot_qubit)

    on_qubit = build_dag(circuit).on_qubit
    preds = [0] * len(gates)  # bitmask of each gate's predecessors
    succ: list[set[int]] = [set() for _ in gates]
    for seq in on_qubit:
        for p, s in zip(seq, seq[1:]):
            preds[s] |= 1 << p
            succ[p].add(s)
    all_gates = (1 << len(gates)) - 1
    pairs = [g.qubits if g.is_two_qubit else None for g in gates]

    node_trap = graph.node_trap
    bound = _hop_bound(circuit, graph)
    moves = [(u, v, w, EDGE_KINDS[cls], ((u, v),))
             for u, v, w, cls in zip(graph.edge_u.tolist(), graph.edge_v.tolist(),
                                     graph.edge_weight.tolist(), graph.edge_class.tolist())]
    SHUTTLE, SWAP = EventKind.SHUTTLE, EventKind.SWAP
    # shrunk so that h * w_min stays below any float sum of h shuttle weights
    w_min = min(graph.edge_weight[graph.edge_class == SHUTTLE_EDGE].tolist(),
                default=0.0) * (1 - 1e-9)

    def close(traps: tuple, executed: int, pending) -> tuple[int, int]:
        """Run ``pending`` and the successors of what runs, once their
        predecessors ran and their qubits share a trap; return (executed, h)."""
        done = executed
        stack = list(pending)
        while stack:
            gid = stack.pop()
            if done >> gid & 1 or preds[gid] & ~done:
                continue
            pair = pairs[gid]
            if pair and traps[pair[0]] != traps[pair[1]]:
                continue
            done |= 1 << gid
            stack.extend(succ[gid])
        return done, bound(traps, done)

    start_traps = tuple(node_trap[mapping[q]] for q in range(circuit.n_qubits))
    start_exec, start_h = close(start_traps, 0, [g.id for g in gates if not preds[g.id]])
    start_cost = (0.0, 0, 0)
    best_seen: dict[tuple, tuple] = {(start_slots, start_exec): (start_cost, ())}
    closed: dict[tuple, tuple[int, int]] = {}  # close's result per (traps, executed)
    heap = [((start_h * w_min, start_h, 0), (), start_cost, start_slots, start_traps,
             start_exec, start_h)]

    while heap:
        _, path, cost, slots, traps, executed, h = heapq.heappop(heap)
        if best_seen[(slots, executed)] < (cost, path):
            continue
        if executed == all_gates:
            return _replay_path(circuit, graph, mapping, path)
        if len(path) >= limits.max_depth:
            continue
        weight, shuttles, swaps = cost
        for u, v, w, kinds, step in moves:
            qu, qv = slots[u], slots[v]
            kind = kinds[(qu is not None) + (qv is not None)]
            if kind is None:
                continue
            new_slots = list(slots)
            new_slots[u], new_slots[v] = qv, qu
            new_slots = tuple(new_slots)
            if kind is SHUTTLE:
                # only a shuttle changes a trap, so only it can run gates or move h
                moved, dest = (qu, v) if qu is not None else (qv, u)
                new_traps = traps[:moved] + (node_trap[dest],) + traps[moved + 1:]
                if (new_traps, executed) not in closed:
                    closed[new_traps, executed] = close(new_traps, executed, on_qubit[moved])
                new_exec, new_h = closed[new_traps, executed]
                new_cost = (weight + w, shuttles + 1, swaps)
            else:
                new_traps, new_exec, new_h = traps, executed, h
                new_cost = (weight + w, shuttles, swaps + (kind is SWAP))
            new_path = path + step
            key = (new_slots, new_exec)
            seen = best_seen.get(key)
            if seen is not None and seen <= (new_cost, new_path):
                continue
            best_seen[key] = (new_cost, new_path)
            heapq.heappush(heap, ((new_cost[0] + new_h * w_min, new_cost[1] + new_h,
                                   new_cost[2]), new_path, new_cost, new_slots, new_traps,
                                  new_exec, new_h))
    return Infeasible(limits.max_depth)


def _hop_bound(circuit: Circuit, graph: DeviceGraph):
    """The search's bound h as a function of (each qubit's trap, executed-gate
    mask), read off the maximal sets of qubit-disjoint two-qubit gates."""
    n = len(graph.topology.traps)
    hops = []  # trap-to-trap hop counts over the shuttle paths, by BFS
    for src in range(n):
        dist = {src: 0}
        queue = [src]
        for t in queue:  # the queue grows while it is walked
            for nb, _ in graph.trap_adj[t]:
                if nb not in dist:
                    dist[nb] = dist[t] + 1
                    queue.append(nb)
        hops.append([dist[t] for t in range(n)])
    two_q = [(g.id, g.qubits, 1 << g.qubits[0] | 1 << g.qubits[1])
             for g in circuit.gates if g.is_two_qubit]
    groups = [(0, 0)]  # (gate mask, qubit mask) of each qubit-disjoint set
    for gid, _, qs in two_q:
        groups += [(gm | 1 << gid, qm | qs) for gm, qm in groups if not qm & qs]
    maximal = [[(gid, a, b) for gid, (a, b), _ in two_q if gm >> gid & 1]
               for gm, qm in groups if all(gm >> gid & 1 or qm & qs for gid, _, qs in two_q)]

    def bound(traps, executed: int) -> int:
        return max(sum(hops[traps[a]][traps[b]] for gid, a, b in group
                       if not executed >> gid & 1) for group in maximal)
    return bound


def _replay_path(circuit, graph, mapping, path) -> Schedule:
    """Turn an edge sequence into a full event list (gates run greedily)."""
    state = MachineState(graph, mapping, circuit.n_qubits)
    dag = build_dag(circuit)
    events = []
    run_ready_gates(state, dag, events)
    for u, v in path:
        events.append(state.apply_generic_swap(u, v))
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
