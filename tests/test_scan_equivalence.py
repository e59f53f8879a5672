"""The edge-kind table, the vectorised scan, the scorer and the distance
table against references.

``MachineState.classify`` and ``candidates`` read each edge's kind from the
static ``EDGE_KINDS`` table; ``reference_kind`` below restates the rule from
edge weights alone, independently of that table.  ``heuristic_scores``
scores all (candidate x frontier gate) pairs in numpy; ``heuristic_h`` is the
per-edge definition it must reproduce exactly.  ``distance_table`` is a
closed form over the trap route and the walks to the trap ends; scipy's
Dijkstra over the slot graph is its reference, and reversing one trap's
slots, which maps the slot graph onto itself, must leave it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from qccdc import (EventKind, Junction, Path, Topology, Trap, WeightParams, distance_table,
                   grid_topology, linear_topology, parse_topology_spec, star_topology,
                   to_graph)
from qccdc.scheduler import candidates, heuristic_h, heuristic_scores
from qccdc.state import MachineState

GENERIC = (EventKind.SWAP, EventKind.SHIFT, EventKind.SHUTTLE)


def reference_kind(graph, u, v, slot_qubit):
    """The generic swap on edge (u, v) from its weight and the occupancy: two
    qubits swap on an intra edge (weight below shuttle_base); a qubit and a
    space shuttle on any other edge, or shift on an intra edge of weight
    inner_weight (adjacent slots); anything else allows none (None)."""
    weight = graph.edge_weight[graph.edge_id(u, v)]
    qu, qv = slot_qubit[u] is not None, slot_qubit[v] is not None
    below = weight < graph.params.shuttle_base
    if below and qu and qv:
        return EventKind.SWAP
    if qu != qv and not below:
        return EventKind.SHUTTLE
    if qu != qv and weight == graph.params.inner_weight:
        return EventKind.SHIFT
    return None


def edge_pairs(graph):
    """Each edge's slot pair (u, v), u < v, in edge order."""
    return list(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))


def chain(caps, hops, parallel=False):
    """Traps in a row; hop i has (segments, junctions crossed).  With
    ``parallel`` the first two traps get a second, direct path."""
    traps = tuple(Trap(i, c) for i, c in enumerate(caps))
    junctions, paths = [], []
    for i, (segments, n_junctions) in enumerate(hops):
        ids = tuple(range(len(junctions), len(junctions) + n_junctions))
        junctions += [Junction(j, 2) for j in ids]
        paths.append(Path(i, i + 1, segments, ids))
    if parallel:
        paths.append(Path(0, 1, 1, ()))
    return Topology(traps, tuple(paths), tuple(junctions))


@st.composite
def topologies(draw):
    family = draw(st.sampled_from(("chain", "G", "S")))
    if family == "G":
        rows, cols = draw(st.sampled_from(((1, 2), (2, 2), (1, 3), (2, 3))))
        return ("G", rows, cols, draw(st.integers(2, 5)))
    if family == "S":
        return ("S", draw(st.integers(2, 4)), draw(st.integers(2, 5)))
    caps = tuple(draw(st.lists(st.integers(2, 7), min_size=2, max_size=4)))
    hops = tuple(draw(st.tuples(st.integers(1, 3), st.integers(0, 2)))
                 for _ in range(len(caps) - 1))
    return ("chain", caps, hops, draw(st.booleans()))


def build(spec):
    if spec[0] == "L":
        return linear_topology(*spec[1:])
    if spec[0] == "G":
        return grid_topology(*spec[1:])
    if spec[0] == "S":
        return star_topology(*spec[1:])
    return chain(*spec[1:])


@st.composite
def scans(draw):
    """A device, an occupancy, some generic swaps already applied, and a
    frontier of gates with decay factors, as plain data."""
    spec = draw(topologies())
    topo = build(spec)
    # spaces per trap drawn directly, so full traps and single spaces are common
    occupancy = []
    for trap in topo.traps:
        n_spaces = draw(st.integers(0, trap.capacity))
        row = [True] * (trap.capacity - n_spaces) + [False] * n_spaces
        occupancy += draw(st.permutations(row))
    if sum(occupancy) < 2:
        occupancy[:2] = [True, True]
    n_qubits = sum(occupancy)
    moves = draw(st.lists(st.integers(0, 10 ** 6), max_size=6))
    gates = draw(st.lists(
        st.tuples(st.integers(0, n_qubits - 1), st.integers(0, n_qubits - 1),
                  st.booleans()).filter(lambda t: t[0] != t[1]),
        min_size=1, max_size=6))
    delta = draw(st.sampled_from((0.001, 0.37, 2.5)))
    scale = draw(st.sampled_from((1.0, 100.0, 0.3)))
    return spec, tuple(occupancy), tuple(moves), tuple(gates), delta, scale


def prepare(spec, occupancy, moves, gates, delta, scale):
    graph = to_graph(build(spec), WeightParams(inner_weight=0.001 * scale, shuttle_base=scale))
    slots = [n for n, full in enumerate(occupancy) if full]
    state = MachineState(graph, dict(enumerate(slots)), len(slots))
    for pick in moves:  # drive the occupancy array through apply_generic_swap
        valid = [(u, v) for u, v in edge_pairs(graph)
                 if reference_kind(graph, u, v, state.slot_qubit) in GENERIC]
        if valid:
            state.apply_generic_swap(*valid[pick % len(valid)])
    state.check_consistency()
    frontier = [(a, b, 1.0 + delta if recent else 1.0) for a, b, recent in gates]
    return graph, state, frontier


def classify_loop(state, graph):
    return [i for i, (u, v) in enumerate(edge_pairs(graph))
            if reference_kind(graph, u, v, state.slot_qubit) in GENERIC]


# trap 0 full, trap 1 with one space at its receiving end: the shuttle both
# relieves the source's penalty and adds the destination's
FULL_TO_ONE = (("chain", (3, 3), ((1, 1),), False),
               (True,) * 3 + (False, True, True), (), ((0, 4, True), (2, 3, False)), 0.001, 1.0)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scans())
@example(FULL_TO_ONE)
def test_candidate_mask_equals_classify_loop(scan):
    graph, state, _ = prepare(*scan)
    found = candidates(state, graph)
    assert found.tolist() == classify_loop(state, graph)
    for u, v in edge_pairs(graph):
        assert state.classify(u, v) is reference_kind(graph, u, v, state.slot_qubit)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scans())
@example(FULL_TO_ONE)
def test_vectorised_scores_equal_heuristic_h(scan):
    graph, state, frontier = prepare(*scan)
    dist = distance_table(graph)
    found = candidates(state, graph)
    if not len(found):
        return
    fast = heuristic_scores(found, state, graph, frontier, dist).tolist()
    slow = [heuristic_h(u, v, state, frontier, dist.tolist())
            for u, v in zip(graph.edge_u[found].tolist(), graph.edge_v[found].tolist())]
    assert fast == slow


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scans())
@example(FULL_TO_ONE)
def test_a_move_is_the_same_from_either_slot(scan):
    """``apply_generic_swap`` orders the slot pair itself: from either end
    every candidate makes the same event and the same placement, and a swap
    or a shift names the lower slot first."""
    graph, state, _ = prepare(*scan)
    for u, v in edge_pairs(graph):
        if state.classify(u, v) is None:
            continue
        n = len(state.mapping)
        a, b = MachineState(graph, state.mapping, n), MachineState(graph, state.mapping, n)
        ev = a.apply_generic_swap(u, v)
        assert ev == b.apply_generic_swap(v, u)
        assert a.slot_qubit == b.slot_qubit
        if ev.kind is not EventKind.SHUTTLE:
            assert ev.slots == (u, v)


def test_full_to_one_example_moves_the_penalty():
    """The explicit example really has a shuttle whose score carries the
    penalty terms, so the property above covers them on every run."""
    graph, state, frontier = prepare(*FULL_TO_ONE)
    assert state.classify(2, 3) is EventKind.SHUTTLE
    assert state.spaces == {0: set(), 1: {0}}
    dist = distance_table(graph).tolist()
    h = heuristic_h(2, 3, state, frontier, dist)
    # q2 lands next to q3, one intra step apart, and the penalty stays at one
    # spaceless trap: trap 0 gains a space (-1) and trap 1 fills up (+1); the
    # shuttle's own weight is not part of the score
    assert h == (0.001 + 1) * 1.0


WEIGHTS = (WeightParams(), WeightParams(inner_weight=0.013, shuttle_base=3.7),
           WeightParams(inner_weight=1e-7, shuttle_base=1e5), WeightParams(inner_weight=0.1))


@st.composite
def tables(draw):
    """A device: L, G, S, or a chain of mixed capacities with and without
    junctions, some with a parallel path."""
    return draw(st.one_of(topologies(),
                          st.tuples(st.just("L"), st.integers(2, 6), st.integers(2, 9))))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tables())
@example(("L", 6, 3))
@example(("chain", (2, 7, 3), ((1, 0), (3, 2)), True))
def test_distance_table_equals_dijkstra(spec):
    topo = build(spec)
    for weights in WEIGHTS:
        graph = to_graph(topo, weights)
        table = distance_table(graph)
        n = graph.n_nodes
        w = np.zeros((n, n))
        w[graph.edge_u, graph.edge_v] = graph.edge_weight / weights.shuttle_base
        assert np.abs(table - dijkstra(csr_matrix(w), directed=False)).max() <= 1e-12
        # reversing one trap's slots (p <-> cap - 1 - p) maps the slot graph
        # onto itself, so mirror-image pairs must get the same float
        for slots in graph.trap_slots.values():
            mirror = np.arange(n)
            mirror[slots] = slots[::-1]
            assert np.array_equal(table[np.ix_(mirror, mirror)], table)


@pytest.mark.parametrize("spec", ["L2:3", "L4:12", "L2:22", "L2:40", "G2x2:22", "G2x3:17",
                                  "G3x3:30", "L9:30", "S9:30"])
def test_distance_table_equals_dijkstra_on_benchmark_devices(spec):
    """The devices the benchmark workloads compile on, up to 270 slots."""
    graph = to_graph(parse_topology_spec(spec))
    n = graph.n_nodes
    w = np.zeros((n, n))
    w[graph.edge_u, graph.edge_v] = graph.edge_weight / graph.params.shuttle_base
    table = distance_table(graph)
    assert table.shape == (n, n) and not np.diag(table).any()
    assert np.abs(table - dijkstra(csr_matrix(w), directed=False)).max() <= 1e-12


def test_distance_table_closed_form_on_two_traps():
    """Two capacity-4 traps, two shuttle units apart: r per step inside a
    trap, and the walks to the nearer ends around the route between them."""
    graph = to_graph(linear_topology(2, 4), WeightParams(inner_weight=0.25, shuttle_base=2.0))
    r, route = 0.125, 2.0
    assert graph.trap_dist[0, 1] == route
    table = distance_table(graph)
    assert table[0, 3] == 3 * r and table[1, 2] == r
    assert table[3, 4] == table[0, 7] == route  # end slot to end slot
    assert table[1, 6] == r + route + r         # both one step in from an end
    assert table[2, 5] == table[1, 6]           # over 2-3-4-5 rather than 1-0-7-6
