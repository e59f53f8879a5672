"""Tests for the benchmark's independent checker.

    python3 -m pytest -q benchmarks/test_checker.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import qccdc as q  # noqa: E402
import checker  # noqa: E402

GATE, SHUTTLE = q.EventKind.GATE, q.EventKind.SHUTTLE


@pytest.fixture(scope="module")
def compiled():
    circuit = q.gen_benchmark("qft", 6)
    topology = q.parse_topology_spec("L2:4")
    graph = q.to_graph(topology)
    sched = q.schedule(circuit, graph, q.initial_mapping(circuit, graph))
    assert sched.metrics["shuttles"] > 0
    return circuit, topology, sched


def problems(circuit, topology, mapping, events):
    return checker.check_schedule(circuit, topology, mapping, events)[0]


def test_accepts_the_compilers_schedule(compiled):
    circuit, topology, sched = compiled
    found, summary = checker.check_schedule(circuit, topology, sched.initial_mapping,
                                            sched.events)
    assert found == []
    metrics = q.evaluate(sched)
    ideal = q.ideal_bounds(sched, q.BoundMode.IDEAL).success_rate
    assert checker.check_metrics(summary, sched.metrics, metrics, ideal) == []


def test_rejects_a_dropped_gate(compiled):
    circuit, topology, sched = compiled
    last_gate = max(i for i, ev in enumerate(sched.events) if ev.kind is GATE)
    events = sched.events[:last_gate] + sched.events[last_gate + 1:]
    assert any("never run" in p for p in problems(circuit, topology,
                                                  sched.initial_mapping, events))


def test_rejects_two_gates_swapped_on_one_qubit(compiled):
    circuit, topology, sched = compiled
    events = list(sched.events)
    for i in range(len(events) - 1):
        a, b = events[i], events[i + 1]
        if a.kind is GATE and b.kind is GATE and set(a.qubits) & set(b.qubits):
            events[i], events[i + 1] = b, a
            break
    else:
        pytest.fail("no adjacent gates share a qubit")
    assert any("program order" in p for p in problems(circuit, topology,
                                                      sched.initial_mapping, events))


def test_rejects_wrong_counts_and_a_makespan_below_the_busiest_trap(compiled):
    circuit, topology, sched = compiled
    _, summary = checker.check_schedule(circuit, topology, sched.initial_mapping, sched.events)
    metrics = q.evaluate(sched)
    short = dataclasses.replace(metrics, makespan_us=summary["busiest_us"] / 2,
                                shuttles=metrics.shuttles + 1)
    found = checker.check_metrics(summary, sched.metrics, short, 1.0)
    assert any(p.startswith("shuttles") for p in found)
    assert any(p.startswith("makespan") for p in found)


# two traps of capacity 3 joined through one junction: slots 0-2 and 3-5
TWO_TRAPS = q.parse_topology_spec("L2:3")


def shuttle(qubit, src, dst, chain_ions):
    return q.EventRecord(SHUTTLE, qubits=(qubit,), slots=(src, dst),
                         traps=(src // 3, dst // 3), segments=1, junction_ids=(0,),
                         junction_degrees=(2,), weight=2.0, chain_ions=chain_ions)


def one_gate_circuit():
    return q.Circuit(2, (q.Gate(0, "cx", (0, 1)),))


def gate_event(slots, chain_ions):
    return q.EventRecord(GATE, qubits=(0, 1), gate_id=0, label="cx", slots=slots,
                         traps=(slots[0] // 3,), chain_ions=chain_ions)


def test_accepts_a_shuttle_between_end_slots():
    events = [shuttle(0, 2, 3, chain_ions=2), gate_event((3, 4), chain_ions=2)]
    assert problems(one_gate_circuit(), TWO_TRAPS, {0: 2, 1: 4}, events) == []


def test_rejects_a_shuttle_from_a_slot_that_is_not_an_end():
    events = [shuttle(0, 1, 3, chain_ions=2), gate_event((3, 4), chain_ions=2)]
    found = problems(one_gate_circuit(), TWO_TRAPS, {0: 1, 1: 4}, events)
    assert any("end slot" in p for p in found)


def test_rejects_a_shuttle_into_a_full_trap():
    # trap 1 holds qubits on all three slots; moving qubit 0 in overfills it
    circuit = q.Circuit(4, (q.Gate(0, "cx", (0, 1)),))
    mapping = {0: 2, 1: 3, 2: 4, 3: 5}
    events = [shuttle(0, 2, 3, chain_ions=4)]
    found = problems(circuit, TWO_TRAPS, mapping, events)
    assert any("occupied" in p for p in found)


def test_rejects_an_initial_mapping_that_overfills_a_slot():
    found = problems(one_gate_circuit(), TWO_TRAPS, {0: 4, 1: 4}, [gate_event((4, 4), 1)])
    assert any("two qubits on slot" in p for p in found)


@pytest.mark.parametrize("gen,size,params", [
    ("qft", 7, {}), ("bv", 9, {}), ("qaoa_chain", 5, {"layers": 3}),
    ("alt", 6, {"layers": 4}), ("cuccaro_adder", 3, {}),
    ("heisenberg", 5, {"trotter_steps": 2}),
])
def test_closed_form_gate_counts_match_the_generators(gen, size, params):
    assert checker.check_gate_counts(q.gen_benchmark(gen, size, **params), gen, size,
                                     params) == []


def test_digest_sees_every_field(compiled):
    _, _, sched = compiled
    events = list(sched.events)
    changed = dataclasses.replace(events[-1], chain_ions=events[-1].chain_ions + 1)
    assert checker.digest(events) != checker.digest(events[:-1] + [changed])
