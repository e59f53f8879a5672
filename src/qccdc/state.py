"""Dynamic machine state: qubit placement, free spaces, and accumulated heat.

One compile job owns one MachineState; every structural change goes through
``apply_generic_swap`` so the mapping, occupancy, space recorder, and
per-trap motional quanta stay consistent with each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceGraph, Edge, EdgeKind, NodeContent, classify_edge
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


class _OccupancyView:
    """Read-only node -> NodeContent view over the slot array."""

    def __init__(self, slot_qubit):
        self._slot_qubit = slot_qubit

    def __getitem__(self, node: int) -> NodeContent:
        return NodeContent.SPACE if self._slot_qubit[node] is None else NodeContent.QUBIT


class MachineState:
    def __init__(self, graph: DeviceGraph, mapping: dict[int, int],
                 heat: HeatParams | None = None):
        self.graph = graph
        self.heat = heat or HeatParams()
        self.slot_qubit: list[int | None] = [None] * graph.n_nodes
        self.mapping: dict[int, int] = {}
        for q, node in mapping.items():
            if self.slot_qubit[node] is not None:
                raise ValueError(f"slot {node} assigned twice in the initial mapping")
            self.slot_qubit[node] = q
            self.mapping[q] = node
        self.occupancy = _OccupancyView(self.slot_qubit)
        # 0/1 per slot, for the scheduler's vectorised candidate scan
        self.occupied = np.array([q is not None for q in self.slot_qubit], dtype=np.intp)
        self.spaces: dict[int, set[int]] = {}
        self.space_count: dict[int, int] = {}
        for trap_id, slots in graph.trap_slots.items():
            poss = {graph.node_pos[n] for n in slots if self.slot_qubit[n] is None}
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

    def classify(self, u: int, v: int, for_gate: bool = False) -> EdgeKind:
        return classify_edge(self.graph, u, v, self.occupancy, for_gate=for_gate)

    def co_trapped(self, qa: int, qb: int) -> bool:
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
            assert self.slot_qubit[dst_node] is None
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


def chain_length(state: MachineState, trap_id: int) -> int:
    return state.chain_length(trap_id)


def ion_distance(state: MachineState, qa: int, qb: int) -> int:
    return state.ion_distance(qa, qb)


def apply_generic_swap(state: MachineState, edge: Edge) -> tuple[MachineState, EventRecord]:
    return state, state.apply_generic_swap(edge)
