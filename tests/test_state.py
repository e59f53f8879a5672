import pytest
from hypothesis import given, strategies as st

from qccdc import (Circuit, CostParams, EventKind, Gate, MachineState, Schedule,
                   WeightParams, build_dag, evaluate, exact_schedule, linear_topology,
                   parse_topology_spec, replay, schedule, to_graph)
from qccdc.bench import qft
from qccdc.state import run_ready_gates


def make_state(mapping, n_traps=2, capacity=3):
    g = to_graph(linear_topology(n_traps, capacity), WeightParams())
    return MachineState(g, mapping, len(mapping))


def heat_after(state, mapping, events, params):
    """The cost model's per-trap heat after ``events``, moves the state made
    from ``mapping``."""
    sched = Schedule(list(events), Circuit(len(mapping), ()), state.graph, mapping)
    return evaluate(sched, params).nbar


def test_swap_exchanges_mapping_without_heat():
    s = make_state({0: 0, 1: 1})
    ev = s.apply_generic_swap(0, 1)
    assert s.mapping == {0: 1, 1: 0}
    assert ev.qubits == (0, 1)
    assert heat_after(s, {0: 0, 1: 1}, [ev], CostParams()) == {0: 0.0, 1: 0.0}
    s.check_consistency()


def test_shuttle_heat_arithmetic():
    """Shuttle over 2 segments adds k1 + 2*k2 quanta to the destination and
    none to the source, in the cost model's heat."""
    g = to_graph(
        __import__("qccdc").topology_from_json({
            "traps": [{"id": 0, "capacity": 2}, {"id": 1, "capacity": 2}],
            "junctions": [{"id": 0, "degree": 2}],
            "paths": [{"trap_a": 0, "trap_b": 1, "segments": 2, "junctions": [0]}],
        }), WeightParams())
    s = MachineState(g, {0: 0, 1: 1}, 2)
    ev = s.apply_generic_swap(1, 2)  # q1 shuttles into trap 1
    assert ev.kind.value == "shuttle" and ev.segments == 2
    for p in (CostParams(), CostParams(k1=0.3, k2=0.05)):
        assert heat_after(s, {0: 0, 1: 1}, [ev], p) == {0: 0.0, 1: p.k1 + 2 * p.k2}
    s.check_consistency()


def test_ion_distance_skips_spaces():
    # trap of 5 slots: q0 _ q1 _ q2  -> 1 ion strictly between q0 and q2
    g = to_graph(linear_topology(2, 5), WeightParams())
    s = MachineState(g, {0: 0, 1: 2, 2: 4}, 3)
    assert s.ion_distance(0, 2) == 1
    assert s.ion_distance(0, 1) == 0
    with pytest.raises(ValueError):
        MachineState(g, {0: 0, 1: 5}, 2).ion_distance(0, 1)


def replay_unscheduled(c, g, mapping):
    """Replay an empty schedule: the placement is all there is to check."""
    return replay(Schedule([], c, g, mapping))


@pytest.mark.parametrize("run", [schedule, exact_schedule, replay_unscheduled])
@pytest.mark.parametrize("slot", [-1, 6, 1.0, True])
def test_placement_outside_the_slots_is_rejected(slot, run):
    """A slot must be an int node id: unchecked, -1 would index the last
    slot, True slot 1, and 6 or 1.0 would raise an IndexError or TypeError
    naming no qubit.  The compilers raise one ValueError naming the qubit and
    the slot; replay reports it."""
    c = qft(2)
    g = to_graph(parse_topology_spec("L2:3"), WeightParams())
    msg = f"initial mapping places qubit 0 at {slot!r}, not a slot of the device (0..5)"
    if run is replay_unscheduled:
        assert run(c, g, {0: slot, 1: 0}) == [msg]
    else:
        with pytest.raises(ValueError) as err:
            run(c, g, {0: slot, 1: 0})
        assert str(err.value) == msg


BAD_QUBITS = [
    ({0: 0, 1: 3, -1: 1}, "initial mapping places -1, not a qubit of the circuit"),
    ({0: 0, True: 3}, "initial mapping places True, not a qubit of the circuit"),
    ({0: 0, 1.0: 3}, "initial mapping places 1.0, not a qubit of the circuit"),
    ({0: 0, 1: 3, "a": 1}, "initial mapping places 'a', not a qubit of the circuit"),
    ({0: 0, 1: 3, 2: 1}, "initial mapping places 2, not a qubit of the circuit"),
    ({0: 0}, "qubit 1 is not placed by the initial mapping"),
]


@pytest.mark.parametrize("run", [schedule, exact_schedule, replay_unscheduled])
@pytest.mark.parametrize("mapping, msg", BAD_QUBITS, ids=repr)
def test_placement_of_other_than_the_circuit_qubits_is_rejected(mapping, msg, run):
    """The placement names exactly the circuit's qubits, as non-negative
    ints (True and 1.0 would pass for qubit 1, and -1 would index the last
    qubit's records).  The compilers raise one ValueError; replay reports it
    as its one violation instead of reading a qubit that has no slot."""
    c = qft(2)
    g = to_graph(parse_topology_spec("L2:3"), WeightParams())
    if run is replay_unscheduled:
        assert run(c, g, mapping) == [msg]
    else:
        with pytest.raises(ValueError) as err:
            run(c, g, mapping)
        assert str(err.value) == msg


@pytest.mark.parametrize("qubit", ["a", -1, True, 0.0, None])
def test_machine_state_rejects_a_qubit_that_is_no_non_negative_int(qubit):
    g = to_graph(parse_topology_spec("L2:3"), WeightParams())
    with pytest.raises(ValueError, match="not a qubit of the circuit"):
        MachineState(g, {qubit: 0}, 1)


def test_replay_reports_a_slot_taken_twice():
    c = qft(2)
    g = to_graph(parse_topology_spec("L2:3"), WeightParams())
    assert replay_unscheduled(c, g, {0: 3, 1: 3}) == [
        "slot 3 assigned twice in the initial mapping"]


def test_invalid_swap_rejected():
    s = make_state({0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5})  # no spaces at all
    with pytest.raises(ValueError):
        s.apply_generic_swap(2, 3)  # shuttle needs a space


def test_space_recorder_tracks_occupancy():
    s = make_state({0: 0, 1: 1})
    assert s.spaces[0] == {2} and s.spaces[1] == {0, 1, 2}
    s.apply_generic_swap(1, 2)  # shift q1 to the end slot
    assert s.spaces[0] == {1}
    assert s.traps_without_space == 0
    s.apply_generic_swap(2, 3)  # shuttle q1 into trap 1
    assert s.spaces[0] == {1, 2}
    s.check_consistency()


@given(st.lists(st.integers(0, 2), min_size=1, max_size=30))
def test_generic_swap_involution(moves):
    """Applying the same intra edge twice restores placement."""
    s = make_state({0: 0, 1: 1, 2: 3})
    edges = [(0, 1), (1, 2), (3, 4)]
    for idx in moves:
        u, v = edges[idx]
        if s.classify(u, v) not in (EventKind.SWAP, EventKind.SHIFT):
            continue
        before = list(s.slot_qubit)
        s.apply_generic_swap(u, v)
        s.apply_generic_swap(v, u)
        assert s.slot_qubit == before
        s.check_consistency()


def test_nbar_monotone_under_random_swaps():
    """Over growing prefixes of a random walk of generic swaps, the cost
    model's heat only rises, and only on a shuttle's destination trap."""
    import random
    rng = random.Random(0)
    start = {0: 0, 1: 1, 2: 3}
    s = make_state(start, n_traps=3, capacity=3)
    p = CostParams()
    events = []
    prev = heat_after(s, start, events, p)
    for _ in range(200):
        usable = [(u, v) for u, v in zip(s.graph.edge_u.tolist(), s.graph.edge_v.tolist())
                  if s.classify(u, v) is not None]
        ev = s.apply_generic_swap(*rng.choice(usable))
        events.append(ev)
        now = heat_after(s, start, events, p)
        assert all(now[t] >= prev[t] for t in now)
        if ev.kind is EventKind.SHUTTLE:
            prev[ev.traps[1]] += p.k1 + p.k2 * ev.segments
        assert now == prev
    assert sum(ev.kind is EventKind.SHUTTLE for ev in events) > 0
    s.check_consistency()


def test_one_drain_shares_each_traps_and_slots_tuple():
    """Gates move no ion, so within one drain every gate event on a trap
    holds one ``traps`` tuple and equal slot pairs one ``slots`` tuple."""
    g = to_graph(linear_topology(2, 4), WeightParams())
    mapping = {0: 0, 1: 1, 2: 2, 3: 4, 4: 5}
    gates = [Gate(i, label, qubits) for i, (label, qubits) in enumerate(
        [("cx", (0, 1)), ("h", (0,)), ("cx", (0, 1)), ("cx", (3, 4)), ("cx", (1, 2)),
         ("h", (0,)), ("cx", (0, 1)), ("cx", (3, 4)), ("h", (3,))])]
    c = Circuit(5, tuple(gates))
    state, events = MachineState(g, mapping, 5), []
    assert run_ready_gates(state, build_dag(c), events) == len(gates)
    for field in ("traps", "slots"):
        by_value = {}
        for ev in events:
            by_value.setdefault(getattr(ev, field), set()).add(id(getattr(ev, field)))
        assert len(by_value) == (2 if field == "traps" else 5)
        assert all(len(ids) == 1 for ids in by_value.values()), field
    assert {ev.slots: ev.ion_dist for ev in events} == {(0, 1): 0, (0,): 0, (4, 5): 0,
                                                        (1, 2): 0, (4,): 0}
    assert {ev.traps: ev.chain_ions for ev in events} == {(0,): 3, (1,): 2}
