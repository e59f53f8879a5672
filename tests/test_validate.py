import dataclasses

import pytest

from qccdc import (EventKind, EventRecord, MappingParams, WeightParams, grid_topology,
                   initial_mapping, parse_topology_spec, replay, schedule, to_graph)
from qccdc.bench import qft
from qccdc.scheduler import Schedule


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
