import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from qccdc import (EventKind, MachineState, WeightParams, grid_topology, linear_topology,
                   parse_topology_spec, star_topology, to_graph, topology_from_json)
from qccdc.device import ADJACENT_EDGE, INTRA_EDGE, SHUTTLE_EDGE


def test_linear_structure():
    topo = linear_topology(4, 22)
    assert len(topo.traps) == 4
    assert len(topo.paths) == 3
    assert all(len(p.junctions) == 1 for p in topo.paths)
    degree = to_graph(topo).junction_degree
    assert all(degree[j] == 2 for p in topo.paths for j in p.junctions)


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
            assert g.node_pos[e.u] in (0, 3) and g.node_pos[e.v] in (0, 3)
            assert g.node_trap[e.u] != g.node_trap[e.v]
        else:
            assert g.node_trap[e.u] == g.node_trap[e.v]


@pytest.mark.parametrize("topology", [linear_topology(4, 5), grid_topology(2, 3, 4),
                                      star_topology(4, 3)])
def test_is_shuttle_agrees_with_the_edge_class(topology):
    graph = to_graph(topology)
    assert any(e.is_shuttle for e in graph.edges)
    assert any(not e.is_shuttle for e in graph.edges)
    for i, e in enumerate(graph.edges):
        assert e.is_shuttle == (graph.edge_class[i] == SHUTTLE_EDGE)


def test_classify_rules():
    g = to_graph(linear_topology(2, 3), WeightParams())
    # slots 0 1 2 | 3 4 5 hold q0 q1 _ | q2 q3 _
    s = MachineState(g, {0: 0, 1: 1, 2: 3, 3: 4})
    # rule 1/2: intra edge, both qubits: a SWAP, and a gate may run
    assert s.classify(0, 1) is EventKind.SWAP
    assert s.co_trapped(0, 1) and s.co_trapped(2, 3)
    # qubits on the two ends of a shuttle edge neither swap nor run a gate
    assert s.classify(0, 3) is None
    assert not s.co_trapped(0, 2)
    # rule 3: shuttle edge, exactly one space
    assert s.classify(2, 3) is EventKind.SHUTTLE
    # rule 4: adjacent intra edge, one space
    assert s.classify(1, 2) is EventKind.SHIFT
    # non-adjacent intra edge with a space cannot shift
    assert s.classify(0, 2) is None
    # shuttle edge with spaces at both ends is invalid
    assert s.classify(2, 5) is None


def test_weight_params_validation():
    # the widest trap's intra weight, 0.25 * (cap - 1), must lie below the
    # shuttle weight 1: 0.75 is valid, 1.0 is not
    quarter = WeightParams(inner_weight=0.25)
    to_graph(linear_topology(2, 4), quarter)
    with pytest.raises(ValueError, match="below the shuttle weight"):
        to_graph(linear_topology(2, 5), quarter)
    for bad in (0.0, -0.001):
        with pytest.raises(ValueError, match="positive"):
            to_graph(linear_topology(2, 3), WeightParams(inner_weight=bad))
    # the weight checks let a NaN or infinite shuttle weight through, and
    # the distance table then divided by it
    for name in ("inner_weight", "shuttle_base"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=name):
                WeightParams(**{name: bad})


def test_parse_topology_spec():
    t = parse_topology_spec("L4:22")
    assert len(t.traps) == 4 and t.traps[0].capacity == 22
    t = parse_topology_spec("G2x3:17")
    assert len(t.traps) == 6
    t = parse_topology_spec("S4", default_capacity=8)
    assert len(t.paths) == 6
    with pytest.raises(ValueError):
        parse_topology_spec("S4")


@pytest.mark.parametrize("spec, part", [
    ("G2:4", "columns ''"), ("Gx3:4", "rows ''"), ("L:4", "trap count ''"),
    ("Lx:4", "trap count 'x'"), ("L4:x", "capacity 'x'"), ("L4:", "capacity ''"),
    ("L1_0:4", "trap count '1_0'"), ("L\u0663:4", "trap count '\u0663'"),
    ("L3: 4", "capacity ' 4'"), ("G2x3:+5", "capacity '+5'"), ("G2x\uff13:5", "columns '\uff13'"),
    ("L3:4 ", "capacity '4 '"), ("L-4:3", "trap count '-4'"), ("L--4:3", "trap count '--4'"),
])
def test_malformed_topology_spec_names_the_part(spec, part):
    message = f"topology spec '{spec}': {part} is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_topology_spec(spec)


def test_benchmark_topology_specs_parse():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import workloads
    specs = {job.topology for jobs in workloads.CIRCUIT_WORKLOADS.values() for job in jobs}
    assert {"L2:40", "G3x3:30", "S9:30"} <= specs
    for spec in specs:
        head, _, capacity = spec.partition(":")
        traps = parse_topology_spec(spec).traps
        assert {t.capacity for t in traps} == {int(capacity)}
        shape = [int(n) for n in head[1:].split("x")]
        assert len(traps) == math.prod(shape)


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


@pytest.mark.parametrize("data", [
    # a path naming trap 2 on a two-trap device
    {"traps": [{"id": 0, "capacity": 3}, {"id": 1, "capacity": 3}],
     "paths": [{"trap_a": 0, "trap_b": 1}, {"trap_a": 1, "trap_b": 2}]},
    # the same on a one-trap device, where no connectivity check runs
    {"traps": [{"id": 0, "capacity": 3}], "paths": [{"trap_a": 0, "trap_b": 1}]},
    {"family": "L", "n": 2},                                  # no capacity
    {"traps": [{"id": 0, "capacity": 3}, {"id": 1}], "paths": []},
    {"traps": [{"id": 0, "capacity": 3}]},                    # no paths
    {"family": "L", "n": 2, "capacity": "4"},                 # capacity as a string
    {"traps": [{"id": 0, "capacity": 3.5}, {"id": 1, "capacity": 3}],
     "paths": [{"trap_a": 0, "trap_b": 1}]},                  # fractional capacity
    {"family": "L", "n": "2", "capacity": 4},                 # trap count as a string
    {"family": 3, "n": 2, "capacity": 4},                     # family not a string
])
def test_malformed_topology_json_raises_value_error(data):
    with pytest.raises(ValueError):
        topology_from_json(data)


def test_junction_ids_must_be_distinct():
    data = {"traps": [{"id": 0, "capacity": 3}, {"id": 1, "capacity": 3}],
            "junctions": [{"id": 0, "degree": 2}, {"id": 0, "degree": 5}],
            "paths": [{"trap_a": 0, "trap_b": 1, "junctions": [0]}]}
    with pytest.raises(ValueError, match="junction ids must be distinct"):
        topology_from_json(data)


@pytest.mark.parametrize("degree", [0, -1, -1000])
def test_junction_degree_below_one_is_rejected(degree):
    # a degree of -1000 used to compile, with a shuttle of negative duration
    data = {"traps": [{"id": 0, "capacity": 3}, {"id": 1, "capacity": 3}],
            "junctions": [{"id": 0, "degree": degree}],
            "paths": [{"trap_a": 0, "trap_b": 1, "junctions": [0]}]}
    with pytest.raises(ValueError, match=f"junction 0 degree {degree} < 1"):
        topology_from_json(data)


def test_degree_one_junctions_are_valid():
    topo = parse_topology_spec("G1x2:4")
    assert {j.degree for j in topo.junctions} == {1}
    assert to_graph(topo).junction_degree == {0: 1, 1: 1}


# explicit devices of mixed capacities, several paths between the same two
# traps (the cheapest wins, the first listed on a tie), paths listed from the
# higher trap id, and a device of one trap with no shuttle edge at all
MIXED = topology_from_json({
    "traps": [{"id": 0, "capacity": 2}, {"id": 1, "capacity": 5},
              {"id": 2, "capacity": 3}, {"id": 3, "capacity": 7}],
    "junctions": [{"id": 4, "degree": 3}, {"id": 9, "degree": 1}, {"id": 2, "degree": 4}],
    "paths": [{"trap_a": 1, "trap_b": 0, "segments": 3, "junctions": [4, 9]},
              {"trap_a": 0, "trap_b": 1, "segments": 2, "junctions": [2]},
              {"trap_a": 0, "trap_b": 1, "segments": 1, "junctions": [4]},
              {"trap_a": 3, "trap_b": 1, "segments": 2},
              {"trap_a": 1, "trap_b": 3, "segments": 2},
              {"trap_a": 2, "trap_b": 1, "segments": 1, "junctions": [2, 4, 9]},
              {"trap_a": 3, "trap_b": 2, "segments": 4, "junctions": [9]}],
})
ONE_TRAP = topology_from_json({"traps": [{"id": 0, "capacity": 6}], "paths": []})
GRAPH_CASES = [
    (linear_topology(4, 5), WeightParams()),
    (grid_topology(2, 3, 4), WeightParams()),
    (star_topology(4, 3), WeightParams()),
    (parse_topology_spec("L9:30"), WeightParams()),
    (parse_topology_spec("G3x3:30"), WeightParams()),
    (parse_topology_spec("S9:30"), WeightParams()),
    (MIXED, WeightParams()),
    (MIXED, WeightParams(inner_weight=0.1 / 3, shuttle_base=1.7)),
    (ONE_TRAP, WeightParams(inner_weight=0.07)),
]


def loop_built_edges(topology, params):
    """The slot graph's edges as nested Python loops build them, in edge
    order: (u, v, weight, segments, junctions).  Intra edges trap by trap,
    slot pairs in row-major order; then, per trap pair in the order its
    first path is listed, the cheapest path's four end-slot edges."""
    slots, n = {}, 0
    for trap in topology.traps:
        slots[trap.id] = list(range(n, n + trap.capacity))
        n += trap.capacity
    trap_paths = {}
    for path in topology.paths:
        key = (min(path.trap_a, path.trap_b), max(path.trap_a, path.trap_b))
        old = trap_paths.get(key)
        if old is None or ((len(path.junctions), path.segments)
                           < (len(old.junctions), old.segments)):
            trap_paths[key] = path
    edges = []
    for trap in topology.traps:
        s = slots[trap.id]
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                edges.append((s[i], s[j], params.inner_weight * (j - i), 0, ()))
    for path in trap_paths.values():
        w = params.shuttle_base * (len(path.junctions) + 1)
        for u in (slots[path.trap_a][0], slots[path.trap_a][-1]):
            for v in (slots[path.trap_b][0], slots[path.trap_b][-1]):
                edges.append((min(u, v), max(u, v), w, path.segments, path.junctions))
    return edges


@pytest.mark.parametrize("topology, params", GRAPH_CASES)
def test_array_built_graph_equals_the_loop_built_one(topology, params):
    """Same edges in the same order, every weight equal under ``==`` (so
    bit-equal), and the per-edge arrays read the same edges."""
    graph = to_graph(topology, params)
    expected = loop_built_edges(topology, params)
    assert [(e.u, e.v, e.weight, e.segments, e.junctions) for e in graph.edges] == expected
    assert all(type(e.u) is int and type(e.v) is int and type(e.weight) is float
               for e in graph.edges)
    assert graph.edge_u.dtype == graph.edge_v.dtype == graph.edge_class.dtype == np.intp
    assert graph.edge_u.tolist() == [e[0] for e in expected]
    assert graph.edge_v.tolist() == [e[1] for e in expected]
    assert graph.edge_weight.tolist() == [e[2] for e in expected]
    assert graph.edge_class.tolist() == [
        SHUTTLE_EDGE if seg else ADJACENT_EDGE if v - u == 1 else INTRA_EDGE
        for u, v, _, seg, _ in expected]


@pytest.mark.parametrize("topology, params", GRAPH_CASES)
def test_edge_id_finds_every_edge_from_either_end(topology, params):
    graph = to_graph(topology, params)
    for i, e in enumerate(graph.edges):
        assert graph.edge_id(e.u, e.v) == graph.edge_id(e.v, e.u) == i
        assert graph.edge(e.v, e.u) is e


@pytest.mark.parametrize("topology", [MIXED, ONE_TRAP, linear_topology(3, 3)])
def test_edge_id_raises_key_error_where_no_edge_is(topology):
    """Every pair of ids from -2 to n_nodes + 1: u == v, a negative id, an id
    past the last slot, and (on L3:3) the end slots of traps 0 and 2, which
    no path joins, have no edge."""
    graph = to_graph(topology)
    index = {(e.u, e.v): i for i, e in enumerate(graph.edges)}
    n = graph.n_nodes
    for u in range(-2, n + 2):
        for v in range(-2, n + 2):
            i = index.get((min(u, v), max(u, v)))
            if i is None:
                with pytest.raises(KeyError, match=f"no edge between nodes {u} and {v}"):
                    graph.edge_id(u, v)
            else:
                assert graph.edge_id(u, v) == i
