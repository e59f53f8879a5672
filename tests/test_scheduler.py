import pathlib
import subprocess
import sys
import tracemalloc

import pytest

from qccdc import (Circuit, DeviceFull, EventKind, Gate, Junction, build_dag,
                   MappingParams, Path, SchedulerParams, SchedulerStuck, Strategy, Topology,
                   Trap, WeightParams, distance_table, gen_benchmark, grid_topology,
                   initial_mapping, linear_topology, parse_topology_spec,
                   replay, schedule, star_topology, to_graph, topology_from_json)
from qccdc import scheduler
from qccdc.bench import qft
from qccdc.device import EDGE_KINDS, SHUTTLE_EDGE
from qccdc.scheduler import _EscapePlanner, _trap_route, candidates, plan_escape
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
        distance_table(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


@pytest.mark.parametrize("spec", ["L5:6", "G2x3:5", "S5:6"])
def test_schedule_builds_the_distance_table_once(monkeypatch, spec):
    circuit = gen_benchmark("qft", 16)
    graph = to_graph(parse_topology_spec(spec))
    mapping = initial_mapping(circuit, graph, MappingParams(strategy=Strategy.GATHERING))
    calls = []

    def counted(g):
        calls.append(g)
        return distance_table(g)

    monkeypatch.setattr(scheduler, "distance_table", counted)
    sched = schedule(circuit, graph, mapping)
    assert not replay(sched)
    assert calls == [graph]


def test_candidates_match_classification():
    g = to_graph(linear_topology(2, 3), WeightParams())
    st = MachineState(g, {0: 0, 1: 1, 2: 3}, 3)
    found = candidates(st, g)
    assert list(found) == sorted(found)  # edge order
    kinds = {}
    for i in found:
        u, v = int(g.edge_u[i]), int(g.edge_v[i])
        kinds[(u, v)] = EDGE_KINDS[g.edge_class[i]][st.occupied[u] + st.occupied[v]].value
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
        g = to_graph(topo, WeightParams(inner_weight=0.001 * r, shuttle_base=1.0 * r))
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
    # a cap below 1 blamed routing ("no progress after 1 generic swaps"),
    # and a NaN cap turned the cap off
    for bad in (0, -3, float("nan"), 2.5, True, "10"):
        with pytest.raises(ValueError, match="iteration_cap_per_gate"):
            SchedulerParams(iteration_cap_per_gate=bad)
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
    pairs = list(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    assert len(pairs) == len(set(pairs))  # one edge per slot pair
    shuttles = g.edge_class == SHUTTLE_EDGE
    assert shuttles.sum() == 4
    assert g.edge_weight[shuttles].tolist() == [2.0] * 4
    direct = g.trap_path[0, 1]
    assert (direct.segments, direct.junctions) == (1, (0,))

    c = qft(6)
    s = schedule(c, g, initial_mapping(c, g, MappingParams()))
    assert not replay(s)
    moved = [e for e in s.events if e.kind is EventKind.SHUTTLE]
    assert moved
    for ev in moved:
        assert (ev.segments, ev.junction_ids, ev.weight) == (
            direct.segments, direct.junctions, g.edge_weight[g.edge_id(*ev.slots)])


def test_parallel_path_tie_keeps_the_first_listed():
    topo = Topology((Trap(0, 3), Trap(1, 3)),
                    (Path(0, 1, 2, (0,)), Path(0, 1, 2, (1,))),
                    (Junction(0, 2), Junction(1, 2)))
    g = to_graph(topo, WeightParams())
    assert g.trap_path == {(0, 1): topo.paths[0]}
    assert g.trap_adj == {0: [(1, 2.0)], 1: [(0, 2.0)]}


def test_trap_route_is_cheapest_then_lexicographically_first():
    g = to_graph(grid_topology(2, 3, 3))  # traps 0 1 2 over 3 4 5, 2 units a hop
    assert g.trap_dist[0, 4] == 4.0 and g.trap_dist[5, 0] == 6.0
    assert _trap_route(g, 0, 4) == [0, 1, 4]     # over 0-3-4 too
    assert _trap_route(g, 5, 0) == [5, 2, 1, 0]  # over 5-4-1-0 and 5-4-3-0 too
    # a junction-free detour (1 + 1) beats a direct path through three junctions (4)
    topo = Topology(tuple(Trap(i, 3) for i in range(3)),
                    (Path(0, 2, 1, (0, 1, 2)), Path(0, 1), Path(1, 2)),
                    tuple(Junction(j, 2) for j in range(3)))
    g = to_graph(topo)
    assert g.trap_dist[0, 2] == 2.0
    assert _trap_route(g, 0, 2) == [0, 1, 2]


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
    state = MachineState(g, {q: q for q in range(9)}, 9)
    before = snapshot(state)
    for mover, stay in ((0, 3), (3, 0)):
        _EscapePlanner(state, g).route(mover, stay)
        assert snapshot(state) == before
    plan = plan_escape(state, g, 0, 3, build_dag(Circuit(9, (Gate(0, "cx", (0, 3)),))))
    assert snapshot(state) == before
    assert [(g.node_trap[u], g.node_trap[v]) for u, v in plan] == [(2, 3), (1, 2), (0, 1)]
    for u, v in plan:
        state.apply_generic_swap(u, v)
    assert state.co_trapped(0, 3)
    state.check_consistency()


def test_plan_escape_failing_mid_plan_leaves_the_state_unchanged(monkeypatch):
    g = to_graph(linear_topology(4, 3), WeightParams())
    state = MachineState(g, {q: q for q in range(9)}, 9)
    before = snapshot(state)
    make_space = _EscapePlanner._make_space_in

    def cascade_then_fail(self, trap, protected):
        make_space(self, trap, protected)
        assert self.plan
        raise DeviceFull("stop after the cascade")

    monkeypatch.setattr(_EscapePlanner, "_make_space_in", cascade_then_fail)
    with pytest.raises(DeviceFull):
        plan_escape(state, g, 0, 3, build_dag(Circuit(9, (Gate(0, "cx", (0, 3)),))))
    assert snapshot(state) == before
    state.check_consistency()


def test_plan_escape_tie_moves_the_operand_with_fewer_two_qubit_gates_left():
    """Either operand reaches the other's trap with one shuttle of the same
    weight, so the one with fewer unexecuted two-qubit gates moves, whichever
    argument it is.  Executed gates and one-qubit gates do not count."""
    g = to_graph(linear_topology(2, 3), WeightParams())
    # slots 0 1 2 | 3 4 5 hold q0 q2 _ | _ _ q1
    state = MachineState(g, {0: 0, 2: 1, 1: 5}, 3)
    dag = build_dag(Circuit(3, tuple(
        Gate(i, label, qubits) for i, (label, qubits) in enumerate(
            [("cx", (1, 2)), ("cx", (1, 2)), ("h", (1,)), ("h", (1,)),
             ("cx", (0, 1)), ("cx", (0, 2))]))))

    def movers():
        plans = [plan_escape(state, g, a, b, dag) for a, b in ((0, 1), (1, 0))]
        assert all(len(plan) == 1 and g.edge_class[g.edge_id(*plan[0])] == SHUTTLE_EDGE
                   for plan in plans)
        return [state.slot_qubit[plan[0][0]] for plan in plans]

    # q1 has three two-qubit gates left and q0 two
    assert movers() == [0, 0]
    # once q1's first two gates have run it has one left, and two h gates
    dag.pop(0)
    dag.pop(1)
    assert movers() == [1, 1]


def test_a_planner_move_named_high_slot_first_still_marks_the_undo():
    """The planner names moves in move order, the scan each edge low slot
    first; the edge just applied is kept in the scan's order, so the key's
    undo mark still finds it after a planner move such as (5, 2)."""
    g = to_graph(linear_topology(4, 2), WeightParams())
    c = Circuit(7, tuple(Gate(i, "cx", qs) for i, qs in enumerate(
        [(1, 3), (2, 4), (3, 4), (0, 5), (4, 1)])))
    s = schedule(c, g, {0: 0, 1: 1, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7})
    assert not replay(s)
    assert [ev.slots for ev in s.events if ev.kind is not EventKind.GATE] == [
        (5, 2), (2, 5), (4, 2), (3, 4), (0, 3), (2, 0), (5, 2), (3, 5), (0, 3), (2, 0),
        (4, 2), (6, 4)]
