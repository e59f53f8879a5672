import pytest

from qccdc import (EdgeKind, MachineState, WeightParams, grid_topology, linear_topology,
                   parse_topology_spec, star_topology, to_graph, topology_from_json)


def test_linear_structure():
    topo = linear_topology(4, 22)
    assert len(topo.traps) == 4
    assert len(topo.paths) == 3
    assert all(len(p.junctions) == 1 for p in topo.paths)
    assert all(topo.junction(j).degree == 2 for p in topo.paths for j in p.junctions)


def test_grid_junction_degrees():
    topo = grid_topology(3, 3, 4)
    assert len(topo.traps) == 9
    assert len(topo.paths) == 12
    degs = {j.id: j.degree for j in topo.junctions}
    assert degs[0] == 2          # corner
    assert degs[1] == 3          # edge midpoint
    assert degs[4] == 4          # center


def test_star_pairwise_connectivity():
    topo = star_topology(4, 8)
    pairs = {(p.trap_a, p.trap_b) for p in topo.paths}
    assert pairs == {(a, b) for a in range(4) for b in range(a + 1, 4)}
    assert topo.junctions[0].degree == 4
    assert all(p.segments == 2 for p in topo.paths)


def test_weight_ladder():
    """Intra adjacent 0.001, intra distance-2 0.002, one-junction shuttle 2,
    two-junction shuttle 3 under default params (shuttle weight w*(j+1))."""
    g = to_graph(linear_topology(2, 3), WeightParams())
    assert g.edge(0, 1).weight == pytest.approx(0.001)
    assert g.edge(0, 2).weight == pytest.approx(0.002)
    assert g.edge(2, 3).weight == pytest.approx(2.0)  # one junction between traps

    two_j = topology_from_json({
        "traps": [{"id": 0, "capacity": 2}, {"id": 1, "capacity": 2}],
        "junctions": [{"id": 0, "degree": 2}, {"id": 1, "degree": 2}],
        "paths": [{"trap_a": 0, "trap_b": 1, "segments": 2, "junctions": [0, 1]}],
    })
    g2 = to_graph(two_j, WeightParams())
    assert g2.edge(1, 2).weight == pytest.approx(3.0)


def test_shuttle_edges_connect_end_slots_only():
    g = to_graph(linear_topology(2, 4), WeightParams())
    for e in g.edges:
        if e.is_shuttle:
            assert g.is_end_slot(e.u) and g.is_end_slot(e.v)
            assert g.node_trap[e.u] != g.node_trap[e.v]
        else:
            assert g.node_trap[e.u] == g.node_trap[e.v]


def test_classify_rules():
    g = to_graph(linear_topology(2, 3), WeightParams())
    # slots 0 1 2 | 3 4 5 hold q0 q1 _ | q2 q3 _
    s = MachineState(g, {0: 0, 1: 1, 2: 3, 3: 4})
    # rule 1/2: below-threshold edge, both qubits: a SWAP, and a gate may run
    assert s.classify(0, 1) is EdgeKind.QUBIT_SWAP
    assert s.co_trapped(0, 1) and s.co_trapped(2, 3)
    # qubits on the two ends of a shuttle edge neither swap nor run a gate
    assert s.classify(0, 3) is EdgeKind.INVALID
    assert not s.co_trapped(0, 2)
    # rule 3: above-threshold edge, exactly one space
    assert s.classify(2, 3) is EdgeKind.SHUTTLE
    # rule 4: adjacent intra edge, one space
    assert s.classify(1, 2) is EdgeKind.SPACE_SHIFT
    # non-adjacent intra edge with a space cannot shift
    assert s.classify(0, 2) is EdgeKind.INVALID
    # shuttle edge with spaces at both ends is invalid
    assert s.classify(2, 5) is EdgeKind.INVALID


def test_weight_params_validation():
    with pytest.raises(ValueError):
        # intra weight for distance cap-1 exceeds the threshold
        to_graph(linear_topology(2, 600), WeightParams())
    with pytest.raises(ValueError):
        to_graph(linear_topology(2, 3), WeightParams(threshold=1.5))


def test_parse_topology_spec():
    t = parse_topology_spec("L4:22")
    assert len(t.traps) == 4 and t.traps[0].capacity == 22
    t = parse_topology_spec("G2x3:17")
    assert len(t.traps) == 6
    t = parse_topology_spec("S4", default_capacity=8)
    assert len(t.paths) == 6
    with pytest.raises(ValueError):
        parse_topology_spec("S4")


def test_topology_from_json_family_form():
    t = topology_from_json({"family": "G", "rows": 2, "cols": 2, "capacity": 5})
    assert len(t.traps) == 4 and t.traps[0].capacity == 5


def test_invalid_topologies():
    with pytest.raises(ValueError):
        linear_topology(1, 4)
    with pytest.raises(ValueError):
        topology_from_json({
            "traps": [{"id": 0, "capacity": 2}, {"id": 1, "capacity": 2},
                      {"id": 2, "capacity": 2}],
            "paths": [{"trap_a": 0, "trap_b": 1}],
        })  # trap 2 disconnected
