import pytest

from qccdc import (Circuit, Gate, MappingParams, Strategy, Topology, Trap, WeightParams,
                   first_level, grid_topology, initial_mapping,
                   interaction_scores, linear_topology, schedule, second_level,
                   to_graph)
from qccdc import mapping as mapping_mod
from qccdc.bench import qft
from qccdc.mapping import dag_layers


def chain_circuit(n):
    gates = tuple(Gate(i, "cx", (i, i + 1)) for i in range(n - 1))
    return Circuit(n, gates)


def test_even_divided_round_robin():
    topo = linear_topology(3, 4)
    c = chain_circuit(7)
    a = first_level(c, topo, MappingParams(strategy=Strategy.EVEN_DIVIDED), dag_layers(c))
    assert a == {0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2, 6: 0}


def test_gathering_fills_with_reserve():
    topo = linear_topology(3, 4)
    c = chain_circuit(7)
    a = first_level(c, topo, MappingParams(strategy=Strategy.GATHERING), dag_layers(c))
    # capacity-1 = 3 qubits per trap, in qubit order
    assert a == {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 2}


def test_gathering_capacity_error():
    topo = linear_topology(2, 3)
    c = chain_circuit(5)
    with pytest.raises(ValueError):
        first_level(c, topo, MappingParams(strategy=Strategy.GATHERING), dag_layers(c))


def test_sta_groups_interacting_qubits():
    # two independent cliques: {0,1,2} and {3,4,5}; STA must not split them
    gates = []
    for a, b in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):
        gates.append(Gate(len(gates), "cx", (a, b)))
    c = Circuit(6, tuple(gates))
    topo = linear_topology(2, 4)
    a = first_level(c, topo, MappingParams(strategy=Strategy.STA), dag_layers(c))
    groups = {}
    for q, t in a.items():
        groups.setdefault(t, set()).add(q)
    assert set(map(frozenset, groups.values())) == {frozenset({0, 1, 2}),
                                                    frozenset({3, 4, 5})}


def test_dag_layers_oracle():
    # independent oracle: longest path by explicit per-qubit chains
    c = qft(5)
    layers = dag_layers(c)
    last = {}
    expect = []
    for g in c.gates:
        depth = max((expect[last[q]] + 1 for q in g.qubits if q in last), default=0)
        expect.append(depth)
        for q in g.qubits:
            last[q] = g.id
    assert layers == expect


def test_interaction_scores_split_internal_external():
    c = chain_circuit(4)  # gates (0,1), (1,2), (2,3)
    assignment = {0: 0, 1: 0, 2: 1, 3: 1}
    scores = interaction_scores(c, assignment, k=8, layers=dag_layers(c))
    assert scores[0] == (0, 1)   # only internal partner 1
    assert scores[1] == (1, 1)   # internal 0, external 2
    assert scores[2] == (1, 1)
    assert scores[3] == (0, 1)


def test_mountain_arrangement_shape():
    """l scores rise from the ends to the middle; spaces sit in the center."""
    g = to_graph(linear_topology(2, 7), WeightParams())
    c = chain_circuit(5)
    assignment = {q: 0 for q in range(5)}
    scores = {0: (3, 0), 1: (2, 0), 2: (1, 0), 3: (0, 1), 4: (0, 2)}
    m = second_level(g, assignment, scores, MappingParams())
    pos = {q: g.node_pos[n] for q, n in m.items()}
    # l(q) = -E + I: q0=-3 < q1=-2 < q2=-1 < q3=1 < q4=2
    assert pos == {0: 0, 1: 6, 2: 1, 3: 5, 4: 2}
    spaces = set(range(7)) - set(pos.values())
    assert spaces == {3, 4}  # centered


def test_initial_mapping_is_injective_and_fits():
    c = qft(10)
    g = to_graph(grid_topology(2, 2, 4), WeightParams())
    for strat in Strategy:
        m = initial_mapping(c, g, MappingParams(strategy=strat))
        assert len(m) == 10
        assert len(set(m.values())) == 10
        for q, node in m.items():
            assert 0 <= node < g.n_nodes


def test_even_division_filling_every_trap_rejected():
    """A full multi-trap device leaves no space to shuttle into, so a gate
    across two traps can never run; gates inside one trap need no shuttle,
    and neither does a single trap."""
    params = MappingParams(strategy=Strategy.EVEN_DIVIDED)
    with pytest.raises(ValueError, match=r"fills every trap, but gate 1 \(cx \(1, 0\)\)"):
        first_level(qft(6), linear_topology(2, 3), params, dag_layers(qft(6)))
    local = Circuit(4, (Gate(0, "h", (1,)), Gate(1, "cx", (0, 2)), Gate(2, "cx", (3, 1))))
    assert first_level(local, linear_topology(2, 2), params, dag_layers(local)) == \
        {0: 0, 1: 1, 2: 0, 3: 1}
    graph = to_graph(linear_topology(2, 2))
    assert len(schedule(local, graph, initial_mapping(local, graph, params)).events) == 3
    one_trap = Topology((Trap(0, 4),), (), ())
    c4, c5 = chain_circuit(4), qft(5)
    assert first_level(c4, one_trap, params, dag_layers(c4)) == dict.fromkeys(range(4), 0)
    assert first_level(c5, linear_topology(2, 3), params, dag_layers(c5)) == \
        {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}


@pytest.mark.parametrize("strat", list(Strategy))
def test_a_circuit_without_qubits_maps_to_nothing(strat):
    """STA's interaction order took the heaviest of no qubits and leaked
    ``max() arg is an empty sequence``; every strategy places nothing."""
    graph = to_graph(linear_topology(2, 3))
    c = Circuit(0, ())
    mapping = initial_mapping(c, graph, MappingParams(strategy=strat))
    assert mapping == {}
    assert schedule(c, graph, mapping).events == []


def test_sta_mapping_builds_the_dag_once(monkeypatch):
    calls = []
    real = mapping_mod.build_dag
    monkeypatch.setattr(mapping_mod, "build_dag", lambda c: calls.append(c) or real(c))
    c = qft(6)
    graph = to_graph(linear_topology(3, 4))
    got = initial_mapping(c, graph, MappingParams(strategy=Strategy.STA))
    assert len(calls) == 1
    params = MappingParams(strategy=Strategy.STA)
    layers = dag_layers(c)
    assignment = first_level(c, graph.topology, params, layers)
    assert got == second_level(
        graph, assignment, interaction_scores(c, assignment, params.lookahead_k, layers), params)


def test_mapping_params_validation():
    # 2.5 and True were accepted, and a string failed only at the first layer test
    for bad in (0, -1, 2.5, True, "8", None):
        with pytest.raises(ValueError, match="lookahead_k"):
            MappingParams(lookahead_k=bad)
    assert MappingParams(lookahead_k=1).lookahead_k == 1
    for name in ("alpha", "beta"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                MappingParams(**{name: bad})
        MappingParams(**{name: -2.0})  # a negative weight is a valid preference


def test_even_divided_overflow():
    c = chain_circuit(9)
    with pytest.raises(ValueError):
        first_level(c, linear_topology(2, 4), MappingParams(strategy=Strategy.EVEN_DIVIDED),
                    dag_layers(c))
