"""Initial qubit placement: trap-level strategies plus intra-trap ordering.

The first level assigns logical qubits to traps (even-divided, gathering, or
interaction-driven ordering).  The second level orders qubits inside each
trap so that placement scores rise from the chain ends toward the center
("mountain" shape), leaving free spaces in the middle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .circuit import Circuit, build_dag
from .device import DeviceGraph, Topology


class Strategy(enum.Enum):
    EVEN_DIVIDED = "even"
    GATHERING = "gather"
    STA = "sta"


@dataclass(frozen=True)
class MappingParams:
    alpha: float = 1.0
    beta: float = 1.0
    lookahead_k: int = 8
    strategy: Strategy = Strategy.GATHERING

    def __post_init__(self):
        k = self.lookahead_k
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ValueError(f"lookahead_k must be an integer >= 1, not {k!r}")
        for name in ("alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def dag_layers(circuit: Circuit) -> list[int]:
    """As-soon-as-possible depth of every gate in the dependency DAG."""
    on_qubit = build_dag(circuit).on_qubit
    layer = [0] * len(circuit.gates)
    # before[q] counts the gates on qubit q already seen, so g's predecessor
    # on q is on_qubit[q][before[q] - 1]
    before = [0] * circuit.n_qubits
    for g in circuit.gates:  # gate ids are a topological order by construction
        depth = 0
        for q in g.qubits:
            i = before[q]
            if i:
                d = layer[on_qubit[q][i - 1]] + 1
                if d > depth:
                    depth = d
            before[q] = i + 1
        layer[g.id] = depth
    return layer


def _interaction_order(circuit: Circuit, layers: list[int]) -> list[int]:
    """Order qubits so strongly-interacting ones are adjacent in the sequence.

    Pairwise weight sums 1/(1+layer) over shared two-qubit gates, so early
    gates dominate; qubits are then emitted greedily next to their heaviest
    already-placed partner.  ``layers`` is ``dag_layers(circuit)``.
    """
    pair_w: dict[tuple[int, int], float] = {}
    total = [0.0] * circuit.n_qubits
    for g in circuit.gates:
        if not g.is_two_qubit:
            continue
        a, b = sorted(g.qubits)
        w = 1.0 / (1.0 + layers[g.id])
        pair_w[(a, b)] = pair_w.get((a, b), 0.0) + w
        total[a] += w
        total[b] += w

    conn: dict[int, dict[int, float]] = {q: {} for q in range(circuit.n_qubits)}
    for (a, b), w in pair_w.items():
        conn[a][b] = w
        conn[b][a] = w

    placed: list[int] = []
    remaining = set(range(circuit.n_qubits))
    # nothing is placed yet, so the first pick is the heaviest qubit overall
    attach = {q: 0.0 for q in remaining}
    while remaining:
        best = max(remaining, key=lambda q: (attach[q], total[q], -q))
        placed.append(best)
        remaining.remove(best)
        del attach[best]
        for nb, w in conn[best].items():
            if nb in attach:
                attach[nb] += w
    return placed


def _pack_with_reserve(order: list[int], topology: Topology) -> dict[int, int]:
    """Fill traps in id order up to capacity-1, keeping one space per trap."""
    room = sum(t.capacity - 1 for t in topology.traps)
    if len(order) > room:
        raise ValueError(
            f"{len(order)} qubits exceed gathering capacity {room} "
            f"(one slot per trap is reserved for incoming ions)")
    assignment = {}
    it = iter(order)
    for trap in topology.traps:
        for _ in range(trap.capacity - 1):
            q = next(it, None)
            if q is None:
                return assignment
            assignment[q] = trap.id
    return assignment


def first_level(circuit: Circuit, topology: Topology, params: MappingParams,
                layers: list[int]) -> dict[int, int]:
    """Assign each logical qubit to a trap according to the chosen strategy;
    ``layers`` is ``dag_layers(circuit)``."""
    n = circuit.n_qubits
    traps = topology.traps
    if params.strategy is Strategy.EVEN_DIVIDED:
        if -(-n // len(traps)) > min(t.capacity for t in traps):
            raise ValueError("circuit does not fit with an even division")
        assignment = {q: traps[q % len(traps)].id for q in range(n)}
        if n == sum(t.capacity for t in traps):
            for g in circuit.gates:
                if g.is_two_qubit and assignment[g.qubits[0]] != assignment[g.qubits[1]]:
                    raise ValueError(
                        f"an even division of {n} qubits fills every trap, but gate "
                        f"{g.id} ({g.label} {g.qubits}) spans two traps and no qubit "
                        f"can be shuttled")
        return assignment
    if params.strategy is Strategy.GATHERING:
        return _pack_with_reserve(list(range(n)), topology)
    if params.strategy is Strategy.STA:
        return _pack_with_reserve(_interaction_order(circuit, layers), topology)
    raise ValueError(f"unknown strategy {params.strategy}")


def interaction_scores(circuit: Circuit, trap_assignment: dict[int, int], k: int,
                       layers: list[int]) -> dict[int, tuple[int, int]]:
    """Per-qubit (E, I): cross-trap vs same-trap gate partners within the
    first k DAG layers; ``layers`` is ``dag_layers(circuit)``."""
    E = {q: 0 for q in range(circuit.n_qubits)}
    I = {q: 0 for q in range(circuit.n_qubits)}
    for g in circuit.gates:
        if not g.is_two_qubit or layers[g.id] >= k:
            continue
        a, b = g.qubits
        if trap_assignment[a] == trap_assignment[b]:
            I[a] += 1
            I[b] += 1
        else:
            E[a] += 1
            E[b] += 1
    return {q: (E[q], I[q]) for q in range(circuit.n_qubits)}


def second_level(graph: DeviceGraph, trap_assignment: dict[int, int],
                 scores: dict[int, tuple[int, int]],
                 params: MappingParams) -> dict[int, int]:
    """Slot-level mapping: mountain arrangement per trap, spaces in the center.

    Low-l qubits land at the chain ends (cheap to shuttle out), high-l qubits
    in the middle; l(q) = -alpha*E(q) + beta*I(q).
    """
    by_trap: dict[int, list[int]] = {t.id: [] for t in graph.topology.traps}
    for q, trap in trap_assignment.items():
        by_trap[trap].append(q)

    mapping: dict[int, int] = {}
    for trap in graph.topology.traps:
        qubits = by_trap[trap.id]
        if len(qubits) > trap.capacity:
            raise ValueError(f"trap {trap.id} over capacity")

        def l_of(q):
            e, i = scores[q]
            return -params.alpha * e + params.beta * i

        ordered = sorted(qubits, key=lambda q: (l_of(q), q))
        left, right = [], []
        for i, q in enumerate(ordered):
            (left if i % 2 == 0 else right).append(q)
        layout = left + [None] * (trap.capacity - len(qubits)) + right[::-1]
        slots = graph.trap_slots[trap.id]
        for pos, q in enumerate(layout):
            if q is not None:
                mapping[q] = slots[pos]
    return mapping


def initial_mapping(circuit: Circuit, graph: DeviceGraph,
                    params: MappingParams | None = None) -> dict[int, int]:
    """Full two-level placement: logical qubit -> slot node."""
    params = params or MappingParams()
    layers = dag_layers(circuit)
    assignment = first_level(circuit, graph.topology, params, layers)
    scores = interaction_scores(circuit, assignment, params.lookahead_k, layers)
    return second_level(graph, assignment, scores, params)
