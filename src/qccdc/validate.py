"""Schedule replay checker.

Rebuilds machine state from the initial mapping and walks the event list,
checking at every step that gates run on co-trapped qubits, per-qubit gate
order matches the circuit, each inserted move is the generic swap its edge
allows at that point, capacities hold, no qubit appears or vanishes, and
per-trap heat never decreases.  It shares ``MachineState`` and its edge-kind
table with the scheduler, so it checks the event list against that kernel,
not the kernel itself: ``tests/test_scan_equivalence.py`` checks the table
against the weight rule, and ``benchmarks/checker.py`` re-walks schedules
without ``MachineState`` at all.
"""

from __future__ import annotations

from .device import EdgeKind
from .events import EventKind
from .scheduler import Schedule
from .state import MachineState


def replay(sched: Schedule) -> list[str]:
    """Return a list of violation descriptions; empty means the schedule is valid."""
    violations: list[str] = []
    graph = sched.graph
    circuit = sched.circuit
    state = MachineState(graph, sched.initial_mapping, sched.heat)

    # per-qubit program order: gates touching a qubit must run in circuit order
    per_qubit: dict[int, list[int]] = {q: [] for q in range(circuit.n_qubits)}
    for g in circuit.gates:
        for q in g.qubits:
            per_qubit[q].append(g.id)
    cursor = {q: 0 for q in per_qubit}

    qubit_set = frozenset(state.mapping)
    executed: set[int] = set()
    prev_nbar = dict(state.nbar)

    for idx, ev in enumerate(sched.events):
        where = f"event {idx} ({ev.kind.value})"
        if ev.kind is EventKind.GATE:
            gid = ev.gate_id
            gate = circuit.gates[gid]
            if gid in executed:
                violations.append(f"{where}: gate {gid} executed twice")
            executed.add(gid)
            for q in gate.qubits:
                lst = per_qubit[q]
                if cursor[q] >= len(lst) or lst[cursor[q]] != gid:
                    violations.append(
                        f"{where}: gate {gid} out of program order on qubit {q}")
                else:
                    cursor[q] += 1
            if gate.is_two_qubit:
                na, nb = state.mapping[gate.qubits[0]], state.mapping[gate.qubits[1]]
                if graph.node_trap[na] != graph.node_trap[nb]:
                    violations.append(
                        f"{where}: gate {gid} qubits {gate.qubits} not co-trapped")
        else:
            u, v = ev.slots
            kind = state.classify(u, v)
            expected = {EventKind.SWAP: EdgeKind.QUBIT_SWAP,
                        EventKind.SHIFT: EdgeKind.SPACE_SHIFT,
                        EventKind.SHUTTLE: EdgeKind.SHUTTLE}[ev.kind]
            if kind is not expected:
                violations.append(
                    f"{where}: edge ({u},{v}) classifies as {kind.value}, "
                    f"not {expected.value}")
                continue
            state.apply_generic_swap(graph.edge(u, v))

        if frozenset(state.mapping) != qubit_set:
            violations.append(f"{where}: logical qubit set changed")
        for trap in graph.topology.traps:
            if state.chain_length(trap.id) > trap.capacity:
                violations.append(f"{where}: trap {trap.id} over capacity")
        for t, n in state.nbar.items():
            if n < prev_nbar[t] - 1e-12:
                violations.append(f"{where}: nbar decreased in trap {t}")
        prev_nbar = dict(state.nbar)

    missing = {g.id for g in circuit.gates} - executed
    if missing:
        violations.append(f"{len(missing)} circuit gates never executed")
    return violations
