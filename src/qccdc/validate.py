"""Schedule replay checker.

Rebuilds machine state from the initial mapping and walks the event list,
checking only what each event touches: a gate event names a gate of the
circuit, which runs on co-trapped qubits in per-qubit circuit order; an
inserted move names two slots joined by an edge, the move is the generic
swap that edge allows at that point, and every field in ``MOVE_FIELDS``
equals the event ``MachineState.apply_generic_swap`` makes for that edge.
Occupancy and the qubit set need no check of their own: every move
exchanges the contents of two slots, so no trap overfills and no qubit
appears or vanishes.  It shares ``MachineState`` and its edge-kind
table with the scheduler, so it checks the event list against that kernel,
not the kernel itself: ``tests/test_scan_equivalence.py`` checks the table
against the weight rule, and ``benchmarks/checker.py`` re-walks schedules
without ``MachineState`` at all.

An initial mapping that ``MachineState`` rejects (a slot that is no node id,
or one taken twice) is the one violation reported: there is nothing to
replay from it.

Cost: a gate event is most of every schedule (about 13k per ``deep_local``
job against about 70 moves), so the gate branch binds what it reads once per
call, looks up each operand's order list and cursor once, and formats a
label only for a violation it reports.  A move builds its label and the
event the edge makes, and compares that event field by field.
"""

from __future__ import annotations

from .circuit import build_dag
from .events import EventKind
from .scheduler import Schedule
from .state import MachineState

# the fields of a move event that the edge and the replayed state fix
MOVE_FIELDS = ("qubits", "slots", "traps", "weight", "segments", "junction_ids",
               "junction_degrees", "chain_ions", "ion_dist")


def replay(sched: Schedule) -> list[str]:
    """Return a list of violation descriptions; empty means the schedule is valid."""
    violations: list[str] = []
    graph = sched.graph
    circuit = sched.circuit
    try:
        state = MachineState(graph, sched.initial_mapping)
    except ValueError as exc:
        return [str(exc)]
    gates, mapping, node_trap = circuit.gates, state.mapping, graph.node_trap
    n_gates, GATE = len(gates), EventKind.GATE

    # gates touching a qubit must run in circuit order: cursor[q] indexes the
    # next gate due on qubit q
    on_qubit = build_dag(circuit).on_qubit
    cursor = [0] * circuit.n_qubits
    executed = bytearray(n_gates)  # 1 once a gate ran

    for idx, ev in enumerate(sched.events):
        if ev.kind is GATE:
            gid = ev.gate_id
            if not (isinstance(gid, int) and 0 <= gid < n_gates):
                violations.append(f"event {idx} (gate): no gate {gid!r} in the circuit")
                continue
            qubits = gates[gid].qubits
            if executed[gid]:
                violations.append(f"event {idx} (gate): gate {gid} executed twice")
            executed[gid] = 1
            for q in qubits:
                seq, i = on_qubit[q], cursor[q]
                if i < len(seq) and seq[i] == gid:
                    cursor[q] = i + 1
                else:
                    violations.append(
                        f"event {idx} (gate): gate {gid} out of program order on qubit {q}")
            if len(qubits) == 2:
                a, b = qubits
                if node_trap[mapping[a]] != node_trap[mapping[b]]:
                    violations.append(
                        f"event {idx} (gate): gate {gid} qubits {qubits} not co-trapped")
        else:
            where = f"event {idx} ({ev.kind.value})"
            if len(ev.slots) != 2:
                violations.append(f"{where}: a move needs two slots, not {ev.slots!r}")
                continue
            u, v = ev.slots
            try:
                kind = state.classify(u, v)
            except (KeyError, TypeError):  # no such edge, or a slot that is no node id
                violations.append(f"{where}: no edge joins slots {u} and {v}")
                continue
            if kind is not ev.kind:
                violations.append(
                    f"{where}: edge ({u},{v}) classifies as "
                    f"{'invalid' if kind is None else kind.value}, not {ev.kind.value}")
                continue
            made = state.apply_generic_swap(graph.edge(u, v))
            if ev != made:
                for name in MOVE_FIELDS:
                    got, want = getattr(ev, name), getattr(made, name)
                    if got != want:
                        violations.append(f"{where}: {name} is {got!r}, not {want!r}")

    missing = executed.count(0)
    if missing:
        violations.append(f"{missing} circuit gates never executed")
    return violations
