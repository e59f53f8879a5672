"""The machine-state kernel: qubit placement, free spaces, accumulated heat,
and the rules that read them.

A generic swap on an edge is a SWAP gate, a space shift or a shuttle
depending only on the edge and on which endpoints hold ions.  The graph fixes
each edge's class once; ``MachineState`` keeps a 0/1 occupancy per slot, and
``classify`` looks the kind up in ``EDGE_KINDS``.  A two-qubit gate can run
exactly when its qubits share a trap (``co_trapped``), and
``run_ready_gates`` is the one routine that runs ready gates.

One compile job owns one MachineState.  Every structural change goes through
``_exchange``, called by ``apply_generic_swap`` for real moves and by the
scheduler's escape planner on a scratch state, so the mapping, occupancy and
space recorder stay consistent with each other; ``apply_generic_swap`` also
adds the per-trap motional quanta and returns the event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import DepGraph
from .device import EDGE_KINDS, DeviceGraph, Edge, EdgeKind
from .events import EventKind, EventRecord


@dataclass(frozen=True)
class HeatParams:
    """Motional-quanta increments per shuttle: k1 for split+merge, k2 per segment.

    ``dest_fraction`` controls how much of the k1 quanta lands on the
    destination trap (the remainder goes to the source chain).
    """

    k1: float = 0.1
    k2: float = 0.01
    dest_fraction: float = 1.0


class MachineState:
    def __init__(self, graph: DeviceGraph, mapping: dict[int, int],
                 heat: HeatParams | None = None):
        self.graph = graph
        self.heat = heat or HeatParams()
        slot_qubit: list[int | None] = [None] * graph.n_nodes
        for q, node in mapping.items():
            if slot_qubit[node] is not None:
                raise ValueError(f"slot {node} assigned twice in the initial mapping")
            slot_qubit[node] = q
        self.slot_qubit = slot_qubit
        self.mapping: dict[int, int] = dict(mapping)
        # 0/1 per slot: with the graph's static edge classes it decides every
        # edge's kind, one lookup per edge (see ``classify``)
        self.occupied = np.array([q is not None for q in slot_qubit], dtype=np.intp)
        self.spaces: dict[int, set[int]] = {}
        self.space_count: dict[int, int] = {}
        for trap_id, slots in graph.trap_slots.items():
            poss = {pos for pos, n in enumerate(slots) if slot_qubit[n] is None}
            self.spaces[trap_id] = poss
            self.space_count[trap_id] = len(poss)
        self.nbar: dict[int, float] = {t.id: 0.0 for t in graph.topology.traps}
        self.traps_without_space = sum(1 for c in self.space_count.values() if c == 0)

    # -- queries ------------------------------------------------------------

    def chain_length(self, trap_id: int) -> int:
        """Number of ions currently in the trap (spaces excluded)."""
        return self.graph.topology.trap(trap_id).capacity - self.space_count[trap_id]

    def ion_distance(self, qa: int, qb: int) -> int:
        """Ions strictly between two co-trapped qubits (spaces not counted)."""
        na, nb = self.mapping[qa], self.mapping[qb]
        ta, tb = self.graph.node_trap[na], self.graph.node_trap[nb]
        if ta != tb:
            raise ValueError(f"qubits {qa} and {qb} are in different traps")
        lo, hi = sorted((self.graph.node_pos[na], self.graph.node_pos[nb]))
        slots = self.graph.trap_slots[ta]
        return sum(1 for p in range(lo + 1, hi) if self.slot_qubit[slots[p]] is not None)

    def classify(self, u: int, v: int) -> EdgeKind:
        """The generic swap edge (u, v) allows now; KeyError if there is no edge."""
        occ = self.occupied
        return EDGE_KINDS[self.graph.edge_class[self.graph.edge_id(u, v)]][occ[u] + occ[v]]

    def co_trapped(self, qa: int, qb: int) -> bool:
        """Whether a two-qubit gate on qa and qb can run now.  Every slot pair
        in a trap has an intra edge and every shuttle edge lies above the
        threshold, so this is the same as the pair's edge allowing a gate."""
        na, nb = self.mapping[qa], self.mapping[qb]
        return self.graph.node_trap[na] == self.graph.node_trap[nb]

    # -- mutation -----------------------------------------------------------

    def _exchange(self, u: int, v: int):
        g = self.graph
        qu, qv = self.slot_qubit[u], self.slot_qubit[v]
        self.slot_qubit[u], self.slot_qubit[v] = qv, qu
        occ = self.occupied
        occ[u], occ[v] = occ[v], occ[u]
        if qu is not None:
            self.mapping[qu] = v
        if qv is not None:
            self.mapping[qv] = u
        for node, before, after in ((u, qu, qv), (v, qv, qu)):
            trap, pos = g.node_trap[node], g.node_pos[node]
            if before is None and after is not None:
                self.spaces[trap].discard(pos)
                self._bump_space(trap, -1)
            elif before is not None and after is None:
                self.spaces[trap].add(pos)
                self._bump_space(trap, +1)

    def _bump_space(self, trap: int, delta: int):
        old = self.space_count[trap]
        self.space_count[trap] = old + delta
        if old == 0 and delta > 0:
            self.traps_without_space -= 1
        elif old + delta == 0 and delta < 0:
            self.traps_without_space += 1

    def apply_generic_swap(self, edge: Edge) -> EventRecord:
        """Exchange the contents of the edge's endpoints; returns the event.

        Shuttles heat the chains: the destination trap gains
        dest_fraction * k1 + k2 * segments quanta, the source the k1 rest.
        """
        kind = self.classify(edge.u, edge.v)
        if kind is EdgeKind.QUBIT_SWAP:
            qa, qb = self.slot_qubit[edge.u], self.slot_qubit[edge.v]
            trap = self.graph.node_trap[edge.u]
            d = self.ion_distance(qa, qb)
            n = self.chain_length(trap)
            self._exchange(edge.u, edge.v)
            return EventRecord(EventKind.SWAP, qubits=(qa, qb), slots=(edge.u, edge.v),
                               traps=(trap,), weight=edge.weight, chain_ions=n, ion_dist=d)
        if kind is EdgeKind.SPACE_SHIFT:
            q = self.slot_qubit[edge.u] if self.slot_qubit[edge.u] is not None \
                else self.slot_qubit[edge.v]
            trap = self.graph.node_trap[edge.u]
            self._exchange(edge.u, edge.v)
            return EventRecord(EventKind.SHIFT, qubits=(q,), slots=(edge.u, edge.v),
                               traps=(trap,), weight=edge.weight)
        if kind is EdgeKind.SHUTTLE:
            if self.slot_qubit[edge.u] is not None:
                src_node, dst_node = edge.u, edge.v
            else:
                src_node, dst_node = edge.v, edge.u
            q = self.slot_qubit[src_node]
            src, dst = self.graph.node_trap[src_node], self.graph.node_trap[dst_node]
            self._exchange(edge.u, edge.v)
            h = self.heat
            self.nbar[dst] += h.dest_fraction * h.k1 + h.k2 * edge.segments
            if h.dest_fraction < 1.0:
                self.nbar[src] += (1.0 - h.dest_fraction) * h.k1
            degs = tuple(self.graph.topology.junction(j).degree for j in edge.junctions)
            return EventRecord(EventKind.SHUTTLE, qubits=(q,), slots=(src_node, dst_node),
                               traps=(src, dst), segments=edge.segments,
                               junction_ids=edge.junctions, junction_degrees=degs,
                               weight=edge.weight, chain_ions=self.chain_length(dst))
        raise ValueError(f"edge ({edge.u},{edge.v}) is not a valid generic swap here")

    def check_consistency(self):
        """Cross-check the redundant structures; cheap enough for tests."""
        seen = {}
        for node, q in enumerate(self.slot_qubit):
            if q is not None:
                assert q not in seen, f"qubit {q} appears twice"
                seen[q] = node
                assert self.mapping[q] == node
        assert seen == self.mapping
        assert self.occupied.tolist() == [int(q is not None) for q in self.slot_qubit]
        for trap_id, slots in self.graph.trap_slots.items():
            poss = {self.graph.node_pos[n] for n in slots if self.slot_qubit[n] is None}
            assert poss == self.spaces[trap_id]
            assert len(poss) == self.space_count[trap_id]


def run_ready_gates(state: MachineState, dag: DepGraph, events: list[EventRecord]) -> int:
    """Run every ready gate whose qubits share a trap, appending its event.

    Passes over the frontier in ascending gate id until a pass runs nothing,
    so a gate promoted during a pass runs in the next one.  Gates change no
    placement, so the order only fixes the event list.  Returns how many ran.
    """
    mapping, node_trap = state.mapping, state.graph.node_trap
    ran = 0
    progress = True
    while progress:
        progress = False
        for gid in sorted(dag.frontier):
            g = dag.gates[gid]
            if g.is_two_qubit and not state.co_trapped(*g.qubits):
                continue
            slots = tuple(mapping[q] for q in g.qubits)
            trap = node_trap[slots[0]]
            events.append(EventRecord(
                EventKind.GATE, qubits=g.qubits, gate_id=gid, label=g.label, slots=slots,
                traps=(trap,), chain_ions=state.chain_length(trap),
                ion_dist=state.ion_distance(*g.qubits) if g.is_two_qubit else 0))
            dag.pop(gid)
            progress = True
            ran += 1
    return ran
