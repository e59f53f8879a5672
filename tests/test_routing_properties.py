"""Routing on any device and placement: every draw gives a schedule that
``replay`` accepts, or a typed ``ValueError`` that says why.

Devices come from the L, G and S families and from explicit chains of mixed
capacities, with and without junctions, some with parallel paths or
shortcuts.  Placements come from ``initial_mapping`` under each strategy and
from arbitrary draws, invalid ones included.  Decay factors of 0 and of 1
and more are drawn besides the default, so a score can also rise between
moves.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from qccdc import (Circuit, DeviceFull, Gate, Junction, MappingParams, Path, SchedulerParams,
                   Strategy, Topology, Trap, grid_topology, initial_mapping, linear_topology,
                   replay, schedule, star_topology, to_graph)


@st.composite
def explicit_topologies(draw):
    """A chain of 2-4 traps whose hops have 1-3 segments and 0-2 junctions,
    plus up to two more paths between any two traps: a parallel path when
    the traps are neighbours, a shortcut otherwise."""
    caps = draw(st.lists(st.integers(2, 5), min_size=2, max_size=4))
    n = len(caps)
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
                           .map(lambda p: (p[0], (p[0] + p[1]) % n)), max_size=2))
    junctions, paths = [], []
    for a, b in pairs:
        ids = tuple(range(len(junctions), len(junctions) + draw(st.integers(0, 2))))
        junctions += [Junction(j, 2) for j in ids]
        paths.append(Path(a, b, draw(st.integers(1, 3)), ids))
    return Topology(tuple(Trap(i, c) for i, c in enumerate(caps)), tuple(paths),
                    tuple(junctions))


topologies = st.one_of(
    st.builds(linear_topology, st.integers(2, 4), st.integers(2, 5)),
    st.builds(lambda shape, cap: grid_topology(*shape, cap),
              st.sampled_from([(1, 2), (2, 2), (1, 3)]), st.integers(2, 4)),
    st.builds(star_topology, st.integers(2, 4), st.integers(2, 4)),
    explicit_topologies())


def circuits(n_qubits):
    gate = st.tuples(st.integers(0, n_qubits - 1), st.integers(0, n_qubits - 1))
    ops = st.lists(gate, min_size=1, max_size=12) if n_qubits else st.just([])
    return ops.map(lambda pairs: Circuit(n_qubits, tuple(
        Gate(i, "cx", (a, b)) if a != b else Gate(i, "h", (a,))
        for i, (a, b) in enumerate(pairs))))


# a slot that is not one: off either end of the device, a float, a bool
BAD_SLOTS = st.sampled_from(["below", "past", 1.0, True])


@st.composite
def arbitrary_mappings(draw, n_qubits, n_nodes):
    """Distinct random slots, then at most one defect: a qubit left out, an
    extra qubit, a slot used twice, or a slot that does not exist."""
    slots = draw(st.permutations(range(n_nodes)))[:n_qubits]
    mapping = dict(enumerate(slots))
    defect = draw(st.sampled_from(["none"] * 4 + ["missing", "extra", "twice", "bad"]))
    if defect == "missing" and mapping:
        del mapping[draw(st.sampled_from(sorted(mapping)))]
    elif defect == "extra" and n_qubits < n_nodes:
        mapping[n_qubits] = draw(st.permutations(range(n_nodes)))[n_qubits]
    elif defect == "twice" and n_qubits >= 2:
        mapping[n_qubits - 1] = mapping[0]
    elif defect == "bad" and mapping:
        bad = draw(BAD_SLOTS)
        mapping[draw(st.sampled_from(sorted(mapping)))] = \
            {"below": -1, "past": n_nodes}.get(bad, bad)
    return mapping


def is_valid(mapping, n_qubits, n_nodes):
    slots = list(mapping.values())
    return (sorted(mapping) == list(range(n_qubits)) and len(set(slots)) == len(slots)
            and all(type(s) is int and 0 <= s < n_nodes for s in slots))


@st.composite
def jobs(draw):
    graph = to_graph(draw(topologies))
    # no qubit, one, or a full device, where routing between traps has no room
    n_qubits = draw(st.one_of(st.integers(2, min(graph.n_nodes, 8)),
                              st.sampled_from([0, 1, graph.n_nodes])))
    circuit = draw(circuits(n_qubits))
    strategy = draw(st.one_of(st.none(), st.sampled_from(list(Strategy))))
    if strategy is None:
        mapping = draw(arbitrary_mappings(n_qubits, graph.n_nodes))
    else:
        try:
            mapping = initial_mapping(circuit, graph, MappingParams(strategy=strategy))
        except ValueError:  # the strategy's own capacity rules
            mapping = draw(arbitrary_mappings(n_qubits, graph.n_nodes))
    delta = draw(st.sampled_from([0.0, 0.001, 1.0, 3.0]))
    return circuit, graph, mapping, delta


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(jobs())
def test_schedule_is_replay_clean_or_a_typed_error(job):
    circuit, graph, mapping, delta = job
    valid = is_valid(mapping, circuit.n_qubits, graph.n_nodes)
    try:
        sched = schedule(circuit, graph, mapping, SchedulerParams(delta=delta))
    except DeviceFull:
        # routing runs out of room only when no slot of the device is free
        assert valid and circuit.n_qubits == graph.n_nodes
        return
    except ValueError as err:
        assert not valid and "initial mapping" in str(err), err
        return
    assert valid
    assert replay(sched) == []
