import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

from qccdc import (Circuit, EventKind, EventRecord, Gate, MachineState, MappingParams,
                   WeightParams, build_dag, gen_benchmark, grid_topology, initial_mapping,
                   parse_topology_spec, replay, schedule, to_graph)
from qccdc.bench import qft
from qccdc.scheduler import Schedule
from qccdc.validate import MOVE_FIELDS


def make_schedule():
    c = qft(6)
    g = to_graph(grid_topology(2, 2, 3), WeightParams())
    m = initial_mapping(c, g, MappingParams())
    return schedule(c, g, m)


def test_clean_schedule_has_no_violations():
    assert replay(make_schedule()) == []


def test_dropped_gate_detected():
    s = make_schedule()
    events = [e for e in s.events
              if not (e.kind is EventKind.GATE and e.gate_id == 0)]
    bad = Schedule(events, s.circuit, s.graph, s.initial_mapping)
    msgs = replay(bad)
    assert any("never executed" in m or "program order" in m for m in msgs)


def test_reordered_gates_detected():
    s = make_schedule()
    gate_idx = [i for i, e in enumerate(s.events) if e.kind is EventKind.GATE]
    events = list(s.events)
    a, b = gate_idx[0], gate_idx[-1]
    events[a], events[b] = events[b], events[a]
    bad = Schedule(events, s.circuit, s.graph, s.initial_mapping)
    assert replay(bad)


def test_missing_movement_detected():
    """Dropping a shuttle desynchronizes placement: later events misclassify
    or gates run on separated qubits."""
    s = make_schedule()
    shuttle_idx = next(i for i, e in enumerate(s.events)
                       if e.kind is EventKind.SHUTTLE)
    events = s.events[:shuttle_idx] + s.events[shuttle_idx + 1:]
    bad = Schedule(events, s.circuit, s.graph, s.initial_mapping)
    assert replay(bad)


def test_wrong_event_kind_detected():
    s = make_schedule()
    events = list(s.events)
    i = next(i for i, e in enumerate(events) if e.kind is EventKind.SHUTTLE)
    events[i] = dataclasses.replace(events[i], kind=EventKind.SWAP)
    bad = Schedule(events, s.circuit, s.graph, s.initial_mapping)
    msgs = replay(bad)
    assert any("classifies as" in m for m in msgs)


def test_move_between_unjoined_slots_is_a_violation():
    """No edge joins slots 1 and 4 of L3:3, the end slots 2 and 6 of traps 0
    and 2 (no path joins them), a negative id or an id past the last slot:
    replay reports the event instead of raising and keeps checking the rest
    of the schedule."""
    c = qft(4)
    g = to_graph(parse_topology_spec("L3:3"), WeightParams())
    s = schedule(c, g, initial_mapping(c, g, MappingParams()))
    assert replay(s) == []
    for u, v in ((1, 4), (2, 6), (-1, 0), (8, 9)):
        stray = EventRecord(EventKind.SHUTTLE, qubits=(0,), slots=(u, v))
        bad = Schedule([stray] + s.events, s.circuit, s.graph, s.initial_mapping)
        assert replay(bad) == [f"event 0 (shuttle): no edge joins slots {u} and {v}"]


def test_gate_event_naming_no_gate_is_a_violation():
    c = qft(4)
    g = to_graph(parse_topology_spec("L2:3"), WeightParams())
    s = schedule(c, g, initial_mapping(c, g, MappingParams()))
    for gid in (99, None):
        stray = EventRecord(EventKind.GATE, qubits=(0,), gate_id=gid)
        bad = Schedule([stray] + s.events, s.circuit, s.graph, s.initial_mapping)
        assert replay(bad) == [f"event 0 (gate): no gate {gid!r} in the circuit"]


def test_move_with_malformed_slots_is_a_violation():
    c = qft(4)
    g = to_graph(parse_topology_spec("L2:3"), WeightParams())
    s = schedule(c, g, initial_mapping(c, g, MappingParams()))
    for slots, msg in (((1,), "a move needs two slots, not (1,)"),
                       ((None, 3), "no edge joins slots None and 3")):
        stray = EventRecord(EventKind.SHIFT, qubits=(0,), slots=slots)
        bad = Schedule([stray] + s.events, s.circuit, s.graph, s.initial_mapping)
        assert replay(bad) == [f"event 0 (shift): {msg}"]


@pytest.mark.parametrize("kind,field,value", [
    (EventKind.SHIFT, "weight", 0.002),
    (EventKind.SHUTTLE, "weight", 1.0),
    (EventKind.SHUTTLE, "segments", 2),
    (EventKind.SHUTTLE, "junction_ids", (1,)),
    (EventKind.SWAP, "ion_dist", 1),
])
def test_tampered_move_field_is_a_violation(kind, field, value):
    """A move event must equal, field by field, the event the edge makes on
    the replayed state; one changed field is exactly one violation."""
    s = make_schedule()
    events = list(s.events)
    i = next(i for i, e in enumerate(events) if e.kind is kind)
    was = getattr(events[i], field)
    events[i] = dataclasses.replace(events[i], **{field: value})
    bad = Schedule(events, s.circuit, s.graph, s.initial_mapping)
    assert replay(bad) == [f"event {i} ({kind.value}): {field} is {value!r}, not {was!r}"]


# ---------------------------------------------------------------------------
# exact violation lists of the gate checks
# ---------------------------------------------------------------------------

def gate_schedule(order, mapping=None):
    """Gate events in ``order`` for h q0; cx q0,q1; h q1 on L2:3, no moves."""
    c = Circuit(2, (Gate(0, "h", (0,)), Gate(1, "cx", (0, 1)), Gate(2, "h", (1,))))
    g = to_graph(parse_topology_spec("L2:3"), WeightParams())
    events = [EventRecord(EventKind.GATE, qubits=c.gates[i].qubits, gate_id=i) for i in order]
    return Schedule(events, c, g, mapping or {0: 0, 1: 1})


def test_gate_checks_report_exact_violations():
    assert replay(gate_schedule([0, 1, 2])) == []
    assert replay(gate_schedule([0, 1, 2, 0])) == [
        "event 3 (gate): gate 0 executed twice",
        "event 3 (gate): gate 0 out of program order on qubit 0"]
    assert replay(gate_schedule([1, 0, 2])) == [
        "event 0 (gate): gate 1 out of program order on qubit 0"]
    assert replay(gate_schedule([0, 2, 1])) == [
        "event 1 (gate): gate 2 out of program order on qubit 1"]
    assert replay(gate_schedule([0, 1, 2], {0: 0, 1: 3})) == [
        "event 1 (gate): gate 1 qubits (0, 1) not co-trapped"]
    assert replay(gate_schedule([0, 1])) == ["1 circuit gates never executed"]
    assert replay(gate_schedule([])) == ["3 circuit gates never executed"]
    bad = gate_schedule([0, 1, 2])
    bad.events.insert(1, EventRecord(EventKind.GATE, qubits=(0,), gate_id=3))
    bad.events.append(EventRecord(EventKind.GATE, qubits=(0,), gate_id=-1))
    assert replay(bad) == ["event 1 (gate): no gate 3 in the circuit",
                           "event 4 (gate): no gate -1 in the circuit"]


# ---------------------------------------------------------------------------
# replay against the loop it replaced, on corrupted schedules
# ---------------------------------------------------------------------------

def reference_replay(sched):
    """The straightforward replay loop: a label per event, every check."""
    violations = []
    graph = sched.graph
    circuit = sched.circuit
    state = MachineState(graph, sched.initial_mapping)
    on_qubit = build_dag(circuit).on_qubit
    cursor = [0] * circuit.n_qubits
    executed = set()
    for idx, ev in enumerate(sched.events):
        where = f"event {idx} ({ev.kind.value})"
        if ev.kind is EventKind.GATE:
            gid = ev.gate_id
            if not (isinstance(gid, int) and 0 <= gid < len(circuit.gates)):
                violations.append(f"{where}: no gate {gid!r} in the circuit")
                continue
            gate = circuit.gates[gid]
            if gid in executed:
                violations.append(f"{where}: gate {gid} executed twice")
            executed.add(gid)
            for q in gate.qubits:
                seq = on_qubit[q]
                if cursor[q] >= len(seq) or seq[cursor[q]] != gid:
                    violations.append(f"{where}: gate {gid} out of program order on qubit {q}")
                else:
                    cursor[q] += 1
            if gate.is_two_qubit:
                na, nb = state.mapping[gate.qubits[0]], state.mapping[gate.qubits[1]]
                if graph.node_trap[na] != graph.node_trap[nb]:
                    violations.append(f"{where}: gate {gid} qubits {gate.qubits} not co-trapped")
        else:
            if len(ev.slots) != 2:
                violations.append(f"{where}: a move needs two slots, not {ev.slots!r}")
                continue
            u, v = ev.slots
            try:
                kind = state.classify(u, v)
            except (KeyError, TypeError):
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
    missing = {g.id for g in circuit.gates} - executed
    if missing:
        violations.append(f"{len(missing)} circuit gates never executed")
    return violations


POOL_JOBS = [("qft", 6, {}, "L3:3"), ("alt", 6, {"layers": 2}, "G2x2:3"),
             ("qaoa_chain", 6, {"layers": 2}, "S3:3"), ("heisenberg", 5, {}, "L2:4")]


@functools.cache
def pool_schedule(i):
    """A valid schedule of ``POOL_JOBS[i]``, compiled once per session."""
    name, size, params, spec = POOL_JOBS[i]
    c = gen_benchmark(name, size, **params)
    g = to_graph(parse_topology_spec(spec), WeightParams())
    return schedule(c, g, initial_mapping(c, g, MappingParams()))


TAMPERED = [("qubits", lambda v: v[::-1] if len(v) > 1 else v + (0,)),
            ("slots", lambda v: v[::-1]), ("slots", lambda v: v[:1]),
            ("slots", lambda v: (v[0], -1)), ("traps", lambda v: v + (0,)),
            ("weight", lambda v: v + 1.0), ("segments", lambda v: v + 1),
            ("junction_ids", lambda v: v + (0,)), ("junction_degrees", lambda v: v[1:]),
            ("chain_ions", lambda v: v - 1), ("ion_dist", lambda v: v + 1),
            ("kind", lambda v: EventKind.SHIFT if v is EventKind.SWAP else EventKind.SWAP)]


@st.composite
def corrupted_schedules(draw):
    s = pool_schedule(draw(st.integers(0, len(POOL_JOBS) - 1)))
    events = list(s.events)
    n_gates = len(s.circuit.gates)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(events) - 1))
        how = draw(st.sampled_from(["drop", "duplicate", "swap", "retarget", "tamper"]))
        if how == "drop":
            del events[i]
        elif how == "duplicate":
            events.insert(i, events[i])
        elif how == "swap" and i + 1 < len(events):
            events[i], events[i + 1] = events[i + 1], events[i]
        elif how == "retarget" and events[i].kind is EventKind.GATE:
            gid = draw(st.one_of(st.none(), st.integers(-1, n_gates)))
            events[i] = dataclasses.replace(events[i], gate_id=gid)
        elif how == "tamper" and events[i].kind is not EventKind.GATE:
            name, change = draw(st.sampled_from(TAMPERED))
            events[i] = dataclasses.replace(events[i], **{name: change(getattr(events[i], name))})
        if not events:
            break
    return Schedule(events, s.circuit, s.graph, s.initial_mapping)


def test_pool_schedules_are_valid():
    for i in range(len(POOL_JOBS)):
        s = pool_schedule(i)
        assert replay(s) == reference_replay(s) == []
        assert {e.kind for e in s.events} >= {EventKind.GATE, EventKind.SHUTTLE}


@settings(max_examples=300, deadline=None)
@given(corrupted_schedules())
def test_replay_matches_reference_on_corrupted_schedules(sched):
    """Dropped, duplicated or swapped events, retargeted gate ids and
    tampered move fields give the plain loop's violations, in its order."""
    assert replay(sched) == reference_replay(sched)
