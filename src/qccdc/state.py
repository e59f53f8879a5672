"""The machine-state kernel: qubit placement, free spaces, and the rules
that read them.

A generic swap on an edge is a SWAP gate, a space shift or a shuttle
depending only on the edge and on which endpoints hold ions.  The graph fixes
each edge's class once; ``MachineState`` keeps a 0/1 occupancy per slot, and
``classify`` looks up in ``EDGE_KINDS`` the ``EventKind`` the swap makes, or
None where the edge allows none.  ``spaces`` is the one record of each trap's
free positions: chain lengths and the count of spaceless traps follow from
it.  A two-qubit gate can run exactly when its qubits share a trap
(``co_trapped``), and ``run_ready_gates`` is the one routine that runs ready
gates.  It passes over the whole frontier once and then over only the gates
each pass promoted: gates move no ion, so a gate a pass skips stays blocked
until the next move.  A trap's slots are consecutive node ids in position
order, so ``ion_distance`` is the node ids between two qubits less the empty
slots among them, one ``list.count``.  The drain, run after every move,
binds ``mapping``, ``node_trap``, ``DepGraph.pop`` and ``co_trapped``,
``ion_distance`` and ``chain_length`` once per call and builds each gate
event positionally; those three are the methods ``apply_generic_swap``
reads, so each fact has one formula.  Within one call it calls them once
per slot pair and per trap, and the call's gate events share the
resulting tuples and ints.

The constructor is the one check of a placement: qubits and slots are
``int`` indices (``bool`` excluded), where -1 or True would name a real
entry, and it places exactly the circuit's qubits, ``0 .. n_qubits - 1``.

A move names its edge by two slots, in either order: ``apply_generic_swap``
takes the kind from ``classify``, the weight from the per-edge arrays and
a shuttle's segments and junctions from ``DeviceGraph.trap_path``.

One compile job owns one MachineState.  Every structural change goes through
``_exchange``, called by ``apply_generic_swap`` for real moves and by the
scheduler's escape planner, which tries its moves on the live state and takes
them back, so the mapping, occupancy and spaces stay consistent with each
other; ``apply_generic_swap`` also returns the event, which
``costmodel.evaluate`` times and grades: the state keeps placement only.
"""

from __future__ import annotations

import numpy as np

from .circuit import DepGraph
from .device import EDGE_KINDS, DeviceGraph
from .events import EventKind, EventRecord


class MachineState:
    def __init__(self, graph: DeviceGraph, mapping: dict[int, int], n_qubits: int):
        self.graph = graph
        n = graph.n_nodes
        slot_qubit: list[int | None] = [None] * n
        for q, node in mapping.items():
            if isinstance(q, bool) or not isinstance(q, int) or not 0 <= q < n_qubits:
                raise ValueError(f"initial mapping places {q!r}, not a qubit of the circuit")
            if isinstance(node, bool) or not isinstance(node, int) or not 0 <= node < n:
                raise ValueError(f"initial mapping places qubit {q} at {node!r}, "
                                 f"not a slot of the device (0..{n - 1})")
            if slot_qubit[node] is not None:
                raise ValueError(f"slot {node} assigned twice in the initial mapping")
            slot_qubit[node] = q
        if len(mapping) < n_qubits:  # the qubits placed are distinct and below it
            missing = min(set(range(n_qubits)) - mapping.keys())
            raise ValueError(f"qubit {missing} is not placed by the initial mapping")
        self.slot_qubit = slot_qubit
        self.mapping: dict[int, int] = dict(mapping)
        # 0/1 per slot: with the graph's static edge classes it decides every
        # edge's kind, one lookup per edge (see ``classify``)
        self.occupied = np.array([q is not None for q in slot_qubit], dtype=np.intp)
        self.spaces: dict[int, set[int]] = {
            t: {pos for pos, n in enumerate(slots) if slot_qubit[n] is None}
            for t, slots in graph.trap_slots.items()}
        self.traps_without_space = sum(not s for s in self.spaces.values())

    # -- queries ------------------------------------------------------------

    def chain_length(self, trap_id: int) -> int:
        """Number of ions currently in the trap (spaces excluded)."""
        return len(self.graph.trap_slots[trap_id]) - len(self.spaces[trap_id])

    def ion_distance(self, qa: int, qb: int) -> int:
        """Ions strictly between two co-trapped qubits (spaces not counted):
        a trap's slots are consecutive node ids in position order, so these
        are the nodes between the two less the empty ones."""
        na, nb = self.mapping[qa], self.mapping[qb]
        if self.graph.node_trap[na] != self.graph.node_trap[nb]:
            raise ValueError(f"qubits {qa} and {qb} are in different traps")
        lo, hi = (na, nb) if na < nb else (nb, na)
        return hi - lo - 1 - self.slot_qubit[lo + 1:hi].count(None)

    def classify(self, u: int, v: int) -> EventKind | None:
        """The kind of generic swap edge (u, v) allows now, or None if it allows
        none; KeyError if there is no edge."""
        occ = self.occupied
        return EDGE_KINDS[self.graph.edge_class[self.graph.edge_id(u, v)]][occ[u] + occ[v]]

    def co_trapped(self, qa: int, qb: int) -> bool:
        """Whether a two-qubit gate on qa and qb can run now.  Every slot pair
        in a trap has an intra edge and no two qubits swap on a shuttle edge,
        so this is the same as the pair's edge allowing a gate."""
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
            spaces = self.spaces[g.node_trap[node]]
            if before is None and after is not None:
                spaces.discard(g.node_pos[node])
                self.traps_without_space += not spaces
            elif before is not None and after is None:
                self.traps_without_space -= not spaces
                spaces.add(g.node_pos[node])

    def apply_generic_swap(self, u: int, v: int) -> EventRecord:
        """Exchange the contents of slots u and v, in either order; returns
        the event, which names the lower slot first (a shuttle: its source)."""
        g = self.graph
        if u > v:
            u, v = v, u
        kind = self.classify(u, v)
        weight = g.edge_weight.item(g.edge_id(u, v))  # a float, not a numpy scalar
        qu, qv = self.slot_qubit[u], self.slot_qubit[v]
        mover = qu if qu is not None else qv  # the one qubit of a shift or shuttle
        trap = g.node_trap[u]
        if kind is EventKind.SWAP:
            d, n = self.ion_distance(qu, qv), self.chain_length(trap)
            self._exchange(u, v)
            return EventRecord(kind, qubits=(qu, qv), slots=(u, v), traps=(trap,),
                               weight=weight, chain_ions=n, ion_dist=d)
        if kind is EventKind.SHIFT:
            self._exchange(u, v)
            return EventRecord(kind, qubits=(mover,), slots=(u, v), traps=(trap,),
                               weight=weight)
        if kind is EventKind.SHUTTLE:
            path = g.trap_path[trap, g.node_trap[v]]  # u < v, so u's trap is the lower
            src_node, dst_node = (u, v) if qu is not None else (v, u)
            src, dst = g.node_trap[src_node], g.node_trap[dst_node]
            self._exchange(u, v)
            degs = tuple(g.junction_degree[j] for j in path.junctions)
            return EventRecord(kind, qubits=(mover,), slots=(src_node, dst_node),
                               traps=(src, dst), segments=path.segments,
                               junction_ids=path.junctions, junction_degrees=degs,
                               weight=weight, chain_ions=self.chain_length(dst))
        raise ValueError(f"edge ({u},{v}) is not a valid generic swap here")

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
        assert self.traps_without_space == sum(not s for s in self.spaces.values())


def run_ready_gates(state: MachineState, dag: DepGraph, events: list[EventRecord]) -> int:
    """Run every ready gate whose qubits share a trap, appending its event.

    The first pass goes over the frontier in ascending gate id; each later
    pass goes over only the gates the pass before promoted, in ascending id,
    until a pass promotes none.  A gate a pass skips stays blocked in the
    next one, because gates move no ion, so this emits the events of passes
    over the whole frontier to a fixpoint.  Returns how many ran.

    For the same reason a slot pair's ion distance and a trap's chain length
    are fixed within one call: two dicts local to it keep, per occupied slot
    pair (or single slot), its ``slots`` tuple and distance, and per trap its
    ``traps`` tuple and chain length, so the gate events of one call share
    those tuples and ints.
    """
    mapping, node_trap = state.mapping, state.graph.node_trap
    co_trapped, ion_distance, chain_length = (state.co_trapped, state.ion_distance,
                                              state.chain_length)
    pop, append, gates, GATE = dag.pop, events.append, dag.gates, EventKind.GATE
    at_slots: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    in_trap: dict[int, tuple[tuple[int], int]] = {}
    ran = 0
    todo = sorted(dag.frontier)
    while todo:
        promoted = []
        for gid in todo:
            g = gates[gid]
            qubits = g.qubits
            if len(qubits) == 2:
                if not co_trapped(*qubits):
                    continue
                key = (mapping[qubits[0]], mapping[qubits[1]])
            else:
                key = (mapping[qubits[0]],)
            placed = at_slots.get(key)
            if placed is None:
                placed = at_slots[key] = (key, ion_distance(*qubits) if len(key) == 2 else 0)
            slots, dist = placed
            trap = node_trap[slots[0]]
            chain = in_trap.get(trap)
            if chain is None:
                chain = in_trap[trap] = ((trap,), chain_length(trap))
            # positional, in the field order ``test_event_record_contract``
            # pins: a keyword build costs about a third more per event
            append(EventRecord(GATE, qubits, gid, g.label, slots, chain[0], 0, (), (), 0.0,
                               chain[1], dist))
            promoted += pop(gid)
            ran += 1
        todo = sorted(promoted)
    return ran
