import itertools
import pathlib
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from qccdc import (Circuit, DeviceFull, EventKind, Gate, Junction,
                   MappingParams, Path, SchedulerParams, SchedulerStuck, Strategy, Topology,
                   Trap, WeightParams, distance_table, gen_benchmark, grid_topology,
                   initial_mapping, linear_topology, parse_topology_spec, random_instance,
                   replay, schedule, star_topology, to_graph, topology_from_json)
from qccdc import scheduler
from qccdc.bench import qft
from qccdc.device import EDGE_KINDS
from qccdc.scheduler import _EscapePlanner, candidates, plan_escape
from qccdc.state import MachineState


def compile_qft(n=8, topo=None, **kw):
    topo = topo or grid_topology(2, 2, 4)
    g = to_graph(topo, WeightParams())
    c = qft(n)
    m = initial_mapping(c, g, MappingParams())
    return schedule(c, g, m, **kw), c, g, m


def event_sig(s):
    return [(e.kind.value, e.qubits, e.slots) for e in s.events]


def test_all_gates_scheduled_and_valid():
    s, c, g, m = compile_qft()
    assert not replay(s)
    gate_ids = [e.gate_id for e in s.events if e.kind is EventKind.GATE]
    assert sorted(gate_ids) == list(range(len(c.gates)))


def test_determinism():
    s1, *_ = compile_qft()
    s2, *_ = compile_qft()
    assert event_sig(s1) == event_sig(s2)


def test_distance_table_truncation_oracle():
    """Independent oracle: brute-force enumeration of simple paths with at
    most m intermediate nodes must match the min-plus table where finite."""
    g = to_graph(linear_topology(3, 3), WeightParams())
    m = 2
    table = distance_table(g, m)

    adj = {n: [] for n in range(g.n_nodes)}
    for e in g.edges:
        adj[e.u].append((e.v, e.weight))
        adj[e.v].append((e.u, e.weight))

    def brute(u, v):
        best = np.inf
        stack = [(u, 0.0, {u})]
        while stack:
            node, w, seen = stack.pop()
            if node == v:
                best = min(best, w)
                continue
            if len(seen) - 1 > m:  # already m intermediates used
                continue
            for nb, ew in adj[node]:
                if nb not in seen:
                    stack.append((nb, w + ew, seen | {nb}))
        return best

    full = dijkstra(csr_matrix(
        [[next((e.weight for e in g.edges
                if {e.u, e.v} == {a, b}), 0.0) for b in range(g.n_nodes)]
         for a in range(g.n_nodes)]), directed=False)
    for u, v in itertools.combinations(range(g.n_nodes), 2):
        b = brute(u, v)
        if np.isfinite(b):
            assert table[u, v] == pytest.approx(b)
        else:
            # fallback: unrestricted shortest path
            assert table[u, v] == pytest.approx(full[u, v])


def test_import_leaves_scipy_out():
    import qccdc
    src = str(pathlib.Path(qccdc.__file__).resolve().parent.parent)
    probe = (f"import sys; sys.path.insert(0, {src!r}); import qccdc; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_distance_table_peak_memory_on_270_slots():
    """The dense min-plus step held an n x n x n array: 159 MB on L9:30."""
    g = to_graph(parse_topology_spec("L9:30"), WeightParams())
    tracemalloc.start()
    try:
        distance_table(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def fill_every_row_up_front(monkeypatch):
    """Reference: every slot reaches every trap, so ``schedule`` fills the
    whole table in its first call, as it did before rows were filled on
    demand."""
    monkeypatch.setattr(scheduler, "_reach",
                        lambda graph: [tuple(graph.trap_slots)] * graph.n_nodes)


def test_rows_on_demand_match_the_full_table_on_random_instances(monkeypatch):
    rng = random.Random(11)
    draws = [random_instance(rng, max_traps=5, max_capacity=6, max_gates=10)
             for _ in range(150)]
    params = SchedulerParams(iteration_cap_per_gate=500)
    lazy = [schedule(c, g, m, params).events for c, g, m in draws]
    with monkeypatch.context() as mp:
        fill_every_row_up_front(mp)
        assert [schedule(c, g, m, params).events for c, g, m in draws] == lazy


@pytest.mark.parametrize("spec", ["L5:6", "G2x3:5", "S5:6"])
@pytest.mark.parametrize("gen,size,kw", [("qft", 16, {}), ("bv", 20, {}),
                                         ("qaoa_chain", 14, {"layers": 3})])
def test_rows_on_demand_match_the_full_table_on_compiles(monkeypatch, spec, gen, size, kw):
    circuit = gen_benchmark(gen, size, **kw)
    graph = to_graph(parse_topology_spec(spec))
    for strat in ("gather", "sta"):
        mapping = initial_mapping(circuit, graph, MappingParams(strategy=Strategy(strat)))
        lazy = schedule(circuit, graph, mapping).events
        with monkeypatch.context() as mp:
            fill_every_row_up_front(mp)
            assert schedule(circuit, graph, mapping).events == lazy


def test_short_circuit_on_a_large_device_fills_few_rows(monkeypatch):
    circuit = gen_benchmark("qft", 32)
    graph = to_graph(parse_topology_spec("L9:30"))
    mapping = initial_mapping(circuit, graph, MappingParams(strategy=Strategy.GATHERING))
    rows = []

    def counted(*args, **kwargs):
        table = distance_table(*args, **kwargs)
        rows.append(len(table))
        return table

    monkeypatch.setattr(scheduler, "distance_table", counted)
    sched = schedule(circuit, graph, mapping)
    assert not replay(sched)
    assert 0 < sum(rows) < graph.n_nodes == 270


def test_candidates_match_classification():
    g = to_graph(linear_topology(2, 3), WeightParams())
    st = MachineState(g, {0: 0, 1: 1, 2: 3})
    found = candidates(st, g)
    assert list(found) == sorted(found)  # edge order
    kinds = {}
    for i in found:
        e = g.edges[i]
        kinds[(e.u, e.v)] = EDGE_KINDS[g.edge_class[i]][st.occupied[e.u] + st.occupied[e.v]].value
    assert kinds[(0, 1)] == "swap"
    assert kinds[(1, 2)] == "shift"
    assert (2, 4) not in kinds      # no edge between end slot and interior
    assert kinds[(3, 4)] == "shift"
    # q2 at end slot 3 may shuttle into trap 0's end space? slot 2 is a space
    assert kinds[(2, 3)] == "shuttle"


def test_monotone_progress_event_stream():
    """Between consecutive gate events there is never a zero-length stall:
    every non-gate event is exactly one generic swap, and the schedule ends
    with all gates executed."""
    s, c, *_ = compile_qft()
    n_gates = sum(1 for e in s.events if e.kind is EventKind.GATE)
    assert n_gates == len(c.gates)
    for e in s.events:
        assert e.kind in (EventKind.GATE, EventKind.SWAP, EventKind.SHIFT,
                          EventKind.SHUTTLE)


def test_gate_order_topological():
    s, c, *_ = compile_qft()
    # a gate's predecessors: the last earlier gate on each of its qubits
    preds, last = [], {}
    for g in c.gates:
        preds.append({last[q] for q in g.qubits if q in last})
        last.update((q, g.id) for q in g.qubits)
    seen = set()
    for e in s.events:
        if e.kind is EventKind.GATE:
            assert preds[e.gate_id] <= seen
            seen.add(e.gate_id)


def test_scale_invariant_argmin():
    c = qft(8)
    topo = grid_topology(2, 2, 4)
    base = None
    for r in (1.0, 100.0, 1000.0):
        g = to_graph(topo, WeightParams(inner_weight=0.001 * r,
                                        shuttle_base=1.0 * r, threshold=0.5 * r))
        m = initial_mapping(c, g, MappingParams())
        sig = event_sig(schedule(c, g, m))
        if base is None:
            base = sig
        assert sig == base


def test_blocked_gate_routed_through_full_trap():
    """A gate between two full traps forces an eviction cascade."""
    g = to_graph(linear_topology(3, 3), WeightParams())
    # traps 0 and 2 full, trap 1 holds the only space
    mapping = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 6, 6: 7, 7: 8}
    c = Circuit(8, (Gate(0, "cx", (0, 5)),))
    s = schedule(c, g, mapping)
    assert not replay(s)
    assert any(e.kind is EventKind.SHUTTLE for e in s.events)


def test_unplaced_qubit_rejected():
    g = to_graph(linear_topology(2, 3), WeightParams())
    c = Circuit(3, (Gate(0, "cx", (0, 2)),))
    with pytest.raises(ValueError):
        schedule(c, g, {0: 0, 1: 1})


def test_params_validation():
    with pytest.raises(ValueError):
        SchedulerParams(delta=-0.1)
    with pytest.raises(ValueError):
        SchedulerParams(m=0)
    # a NaN decay factor made every decayed score NaN: L3:4 qft:8 routed
    # with 12 shuttles instead of 16
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta"):
            SchedulerParams(delta=bad)


def test_star_topology_schedules():
    s, *_ = compile_qft(n=10, topo=star_topology(4, 4))
    assert not replay(s)


def two_paths(direct_first):
    """Two capacity-4 traps joined by a 1-segment path through one junction
    and by a 3-segment path through two."""
    direct = {"trap_a": 0, "trap_b": 1, "segments": 1, "junctions": [0]}
    detour = {"trap_a": 0, "trap_b": 1, "segments": 3, "junctions": [1, 2]}
    return topology_from_json({
        "traps": [{"id": 0, "capacity": 4}, {"id": 1, "capacity": 4}],
        "junctions": [{"id": j, "degree": 2} for j in range(3)],
        "paths": [direct, detour] if direct_first else [detour, direct]})


@pytest.mark.parametrize("direct_first", [True, False])
def test_parallel_paths_keep_the_cheapest_edge(direct_first):
    g = to_graph(two_paths(direct_first), WeightParams())
    pairs = [(e.u, e.v) for e in g.edges]
    assert len(pairs) == len(set(pairs))  # one edge per slot pair
    shuttles = [e for e in g.edges if e.is_shuttle]
    assert len(shuttles) == 4
    assert all((e.segments, e.weight, e.junctions) == (1, 2.0, (0,)) for e in shuttles)

    c = qft(6)
    s = schedule(c, g, initial_mapping(c, g, MappingParams()))
    assert not replay(s)
    moved = [e for e in s.events if e.kind is EventKind.SHUTTLE]
    assert moved
    for ev in moved:
        edge = g.edge(*ev.slots)
        assert (ev.segments, ev.weight) == (edge.segments, edge.weight)


def test_parallel_path_tie_keeps_the_first_listed():
    topo = Topology((Trap(0, 3), Trap(1, 3)),
                    (Path(0, 1, 2, (0,)), Path(0, 1, 2, (1,))),
                    (Junction(0, 2), Junction(1, 2)))
    g = to_graph(topo, WeightParams())
    assert {e.junctions for e in g.edges if e.is_shuttle} == {(0,)}
    assert g.trap_adj == {0: [(1, 2.0)], 1: [(0, 2.0)]}


def test_full_device_raises_device_full():
    c = qft(8)
    g = to_graph(linear_topology(2, 4), WeightParams())
    # the even division that fills both traps; ``initial_mapping`` now
    # refuses it, so the schedule gets it directly
    with pytest.raises(ValueError, match="fills every trap"):
        initial_mapping(c, g, MappingParams(strategy=Strategy.EVEN_DIVIDED))
    m = {q: g.trap_slots[q % 2][q // 2] for q in range(8)}
    with pytest.raises(DeviceFull, match="every trap is full"):
        schedule(c, g, m)
    assert issubclass(DeviceFull, ValueError)


def test_junction_free_path_schedules():
    """A path with no junctions gives shuttle weight 1.0, so a cross-trap gate
    scores exactly 1.0.  Judging progress by adding a no-op swap's weight and
    taking it off again rounded below 1.0, and routing livelocked to the swap
    cap instead of calling the escape planner."""
    topo = topology_from_json({"traps": [{"id": 0, "capacity": 6}, {"id": 1, "capacity": 7}],
                               "paths": [{"trap_a": 0, "trap_b": 1}]})
    g = to_graph(topo, WeightParams())
    c = gen_benchmark("heisenberg", 6)
    s = schedule(c, g, initial_mapping(c, g, MappingParams()))
    assert not replay(s)
    assert s.metrics["shuttles"] == 1


def test_swap_cap_raises_a_value_error():
    # slots 0 1 2 | 3 4 5 hold q1 q0 q2 | _ q3 _: q0 must reach an end of its
    # full trap and then shuttle, two generic swaps before the gate can run
    g = to_graph(linear_topology(2, 3), WeightParams())
    c = Circuit(4, (Gate(0, "cx", (0, 3)),))
    with pytest.raises(SchedulerStuck) as err:
        schedule(c, g, {1: 0, 0: 1, 2: 2, 3: 4}, SchedulerParams(iteration_cap_per_gate=1))
    assert isinstance(err.value, ValueError)


def snapshot(state):
    return (list(state.slot_qubit), dict(state.mapping), state.occupied.tolist(),
            {t: set(p) for t, p in state.spaces.items()},
            state.traps_without_space)


def test_plan_escape_leaves_the_state_as_it_found_it():
    """The planner moves ions on the live state and takes every move back.
    Traps 0-2 of L4:3 are full, so routing q0 to q3 in trap 1 cascades an
    eviction through trap 2 into trap 3 first."""
    g = to_graph(linear_topology(4, 3), WeightParams())
    state = MachineState(g, {q: q for q in range(9)})
    before = snapshot(state)
    for mover, stay in ((0, 3), (3, 0)):
        _EscapePlanner(state, g).route(mover, stay)
        assert snapshot(state) == before
    plan = plan_escape(state, g, 0, 3, [0] * 9)
    assert snapshot(state) == before
    assert [(g.node_trap[u], g.node_trap[v]) for u, v in plan] == [(2, 3), (1, 2), (0, 1)]
    for u, v in plan:
        state.apply_generic_swap(g.edge(u, v))
    assert state.co_trapped(0, 3)
    state.check_consistency()


def test_plan_escape_failing_mid_plan_leaves_the_state_unchanged(monkeypatch):
    g = to_graph(linear_topology(4, 3), WeightParams())
    state = MachineState(g, {q: q for q in range(9)})
    before = snapshot(state)
    make_space = _EscapePlanner._make_space_in

    def cascade_then_fail(self, trap, protected):
        make_space(self, trap, protected)
        assert self.plan
        raise DeviceFull("stop after the cascade")

    monkeypatch.setattr(_EscapePlanner, "_make_space_in", cascade_then_fail)
    with pytest.raises(DeviceFull):
        plan_escape(state, g, 0, 3, [0] * 9)
    assert snapshot(state) == before
    state.check_consistency()
