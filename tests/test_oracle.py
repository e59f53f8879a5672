import functools
import heapq
import random

import pytest

from qccdc import (BoundMode, Circuit, Gate, Infeasible, OracleLimits,
                   WeightParams, evaluate, exact_schedule, ideal_bounds,
                   linear_topology, random_instance, replay, schedule,
                   to_graph)
from qccdc import oracle
from qccdc.device import EDGE_KINDS, Junction, Path, Topology, Trap
from qccdc.events import EventKind
from qccdc.oracle import _hop_bound
from qccdc.state import MachineState


def reference_exact(circuit, graph, mapping, limits=None):
    """Uniform-cost search over (occupancy, executed-gate-set, depth) states,
    with no lower bound and a full gate rescan per move, under the same
    limits as ``exact_schedule``: the reference its optimum must equal.
    Returns the optimal (weight, shuttles, swaps), or Infeasible.

    A state is expanded again only when it is reached in fewer moves than
    before: costs pop in order, so a later arrival in as many moves or more
    costs no less and reaches nothing the first could not.  So no cheaper
    path of more moves keeps a shorter one out."""
    limits = limits or OracleLimits()
    # a gate's predecessors: the last earlier gate on each of its qubits
    preds, last = [], {}
    for g in circuit.gates:
        preds.append({last[q] for q in g.qubits if q in last})
        last.update((q, g.id) for q in g.qubits)
    all_gates = frozenset(g.id for g in circuit.gates)
    node_trap = graph.node_trap
    edges = list(zip(graph.edge_u.tolist(), graph.edge_v.tolist(), graph.edge_weight.tolist(),
                     graph.edge_class.tolist()))

    @functools.cache
    def run_free_gates(slots, executed):
        node_of = {q: i for i, q in enumerate(slots) if q is not None}
        changed = True
        done = set(executed)
        while changed:
            changed = False
            for g in circuit.gates:
                if g.id in done or not preds[g.id] <= done:
                    continue
                if g.is_two_qubit and \
                        node_trap[node_of[g.qubits[0]]] != node_trap[node_of[g.qubits[1]]]:
                    continue
                done.add(g.id)
                changed = True
        return frozenset(done)

    start_slots = tuple(MachineState(graph, mapping, circuit.n_qubits).slot_qubit)
    expanded = {}  # the fewest moves each (slots, executed) state was expanded at
    counter = 0
    heap = [((0.0, 0, 0), counter, start_slots, run_free_gates(start_slots, frozenset()), 0)]
    while heap:
        cost, _, slots, executed, depth = heapq.heappop(heap)
        if expanded.get((slots, executed), depth + 1) <= depth:
            continue
        expanded[slots, executed] = depth
        if executed == all_gates:
            return cost
        if depth == limits.max_depth:
            continue
        for u, v, w, cls in edges:
            kind = EDGE_KINDS[cls][(slots[u] is not None) + (slots[v] is not None)]
            if kind is None:
                continue
            new_slots = list(slots)
            new_slots[u], new_slots[v] = new_slots[v], new_slots[u]
            new_slots = tuple(new_slots)
            new_exec = run_free_gates(new_slots, executed)
            if expanded.get((new_slots, new_exec), depth + 2) <= depth + 1:
                continue
            new_cost = (cost[0] + w,
                        cost[1] + (1 if kind is EventKind.SHUTTLE else 0),
                        cost[2] + (1 if kind is EventKind.SWAP else 0))
            counter += 1
            heapq.heappush(heap, (new_cost, counter, new_slots, new_exec, depth + 1))
    return Infeasible(limits.max_depth)


def explicit_instance(rng):
    """A routing instance on 3-4 traps of capacity 2-3 (at most 12 slots),
    joined in a chain plus 1-3 more paths between random traps, so some
    pairs have parallel paths; each path has 1-3 segments and 0-2
    junctions.  A random placement keeps at least one space."""
    n = rng.randint(3, 4)
    caps = [rng.randint(2, 3) for _ in range(n)]
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3))]
    junctions, paths = [], []
    for a, b in pairs:
        ids = tuple(range(len(junctions), len(junctions) + rng.randint(0, 2)))
        junctions += [Junction(j, 3) for j in ids]
        paths.append(Path(a, b, rng.randint(1, 3), ids))
    topo = Topology(tuple(Trap(i, c) for i, c in enumerate(caps)), tuple(paths),
                    tuple(junctions))
    graph = to_graph(topo, WeightParams())
    n_qubits = rng.randint(2, graph.n_nodes - 1)
    mapping = dict(enumerate(rng.sample(range(graph.n_nodes), n_qubits)))
    gates = tuple(Gate(i, "cx", tuple(rng.sample(range(n_qubits), 2)))
                  for i in range(rng.randint(1, 5)))
    return Circuit(n_qubits, gates), graph, mapping


def optimum(res):
    if isinstance(res, Infeasible):
        return res
    m = res.metrics
    return res.inserted_weight, m["shuttles"], m["swap_gates"]


def two_trap_setup():
    g = to_graph(linear_topology(2, 3), WeightParams())
    return g


def test_free_circuit_costs_nothing():
    g = two_trap_setup()
    c = Circuit(2, (Gate(0, "cx", (0, 1)),))
    s = exact_schedule(c, g, {0: 0, 1: 1})
    assert s.inserted_weight == 0.0
    assert not replay(s)


def test_single_shuttle_optimum():
    """Separated pair with a space already at the destination end: exactly
    one shuttle (weight 2) is optimal, hand-checked."""
    g = two_trap_setup()
    # trap 0: q0 at slot 0, space at 1, space at 2 (end); trap 1: q1 at end slot 3
    c = Circuit(2, (Gate(0, "cx", (0, 1)),))
    s = exact_schedule(c, g, {0: 0, 1: 3})
    assert s.inserted_weight == pytest.approx(2.0)
    kinds = [e.kind.value for e in s.events]
    assert kinds.count("shuttle") == 1
    assert not replay(s)


def test_shift_then_shuttle_optimum():
    """Only space is mid-trap: one shift (0.001) + one shuttle (2) is optimal."""
    g = two_trap_setup()
    # trap 0 full (q0,q2,q3); trap 1: q1 at 3, space at 4, q4 at 5
    c = Circuit(5, (Gate(0, "cx", (0, 1)),))
    mapping = {0: 0, 2: 1, 3: 2, 1: 3, 4: 5}
    s = exact_schedule(c, g, mapping)
    assert s.inserted_weight == pytest.approx(2.001)
    assert not replay(s)


def test_infeasible_within_depth():
    g = two_trap_setup()
    c = Circuit(5, (Gate(0, "cx", (0, 1)),))
    mapping = {0: 0, 2: 1, 3: 2, 1: 3, 4: 5}
    res = exact_schedule(c, g, mapping, OracleLimits(max_depth=1))
    assert isinstance(res, Infeasible)


@pytest.mark.parametrize("field,value", [
    ("max_depth", 2.5), ("max_depth", -5), ("max_depth", 0), ("max_depth", True),
    ("max_nodes", "12"), ("max_gates", None), ("max_gates", 0),
])
def test_limits_must_be_positive_ints(field, value):
    with pytest.raises(ValueError, match=field):
        OracleLimits(**{field: value})


def test_limits_enforced():
    g = to_graph(linear_topology(3, 5), WeightParams())
    c = Circuit(2, (Gate(0, "cx", (0, 1)),))
    with pytest.raises(ValueError):
        exact_schedule(c, g, {0: 0, 1: 1})  # 15 slots > max_nodes
    g = two_trap_setup()
    with pytest.raises(ValueError, match="qubit 2 is not placed"):
        exact_schedule(Circuit(3, (Gate(0, "cx", (0, 1)),)), g, {0: 0, 1: 3})


def test_oracle_never_beaten_by_heuristic():
    rng = random.Random(7)
    for _ in range(30):
        c, g, m = random_instance(rng)
        res = exact_schedule(c, g, m)
        if isinstance(res, Infeasible):
            continue
        assert not replay(res)
        s = schedule(c, g, m)
        assert s.inserted_weight >= res.inserted_weight - 1e-9


def test_ideal_bounds_match_relax_flags():
    rng = random.Random(1)
    c, g, m = random_instance(rng)
    s = schedule(c, g, m)
    base = evaluate(s)
    for mode, flags in ((BoundMode.PERFECT_SWAP, dict(relax_swap=True)),
                        (BoundMode.PERFECT_SHUTTLE, dict(relax_shuttle=True)),
                        (BoundMode.IDEAL, dict(relax_swap=True, relax_shuttle=True))):
        assert ideal_bounds(s, mode).success_rate == \
               evaluate(s, **flags).success_rate
        assert ideal_bounds(s, mode).success_rate >= base.success_rate


@pytest.mark.parametrize("seed,draws,instance,depth", [
    (2026, 150, random_instance, 8),
    (31, 100, functools.partial(random_instance, max_traps=4, max_gates=5), 4),  # a third Infeasible
    (31, 60, functools.partial(random_instance, max_traps=4, max_gates=5, max_capacity=2), 8),
    (44, 100, explicit_instance, 4),  # one path per state misses optima here
], ids=["linear", "linear-4-traps", "linear-capacity-2", "parallel-paths"])
def test_a_star_matches_reference_search(seed, draws, instance, depth):
    """A* returns the reference's optimum (weight under ==, shuttles, swaps)
    and its Infeasible verdicts, with the same limits, on 410 draws: linear
    chains, and topologies with parallel paths, where a search that keeps
    one path per state regardless of depth would miss some optima."""
    rng = random.Random(seed)
    limits = OracleLimits(max_depth=depth)
    for _ in range(draws):
        c, g, m = instance(rng)
        assert optimum(exact_schedule(c, g, m, limits)) == reference_exact(c, g, m, limits)


def test_tie_break_is_the_smaller_edge_sequence():
    """L3:3 with trap 1 empty: q0 at trap 0's end, q1 between q2 and q3 in
    trap 2.  Every optimum swaps q1 out to slot 6 and shuttles q0 and q1 into
    trap 1, at (4.001, 2, 1); they differ only in order and landing slots.
    The smallest edge sequence shuttles q0 first: (2,3), (6,7), (5,6)."""
    g = to_graph(linear_topology(3, 3), WeightParams())
    c = Circuit(4, (Gate(0, "cx", (0, 1)),))
    mapping = {0: 2, 1: 7, 2: 6, 3: 8}
    s = exact_schedule(c, g, mapping)
    assert optimum(s) == reference_exact(c, g, mapping) == (2.0 + 0.001 + 2.0, 2, 1)
    moves = [tuple(sorted(e.slots)) for e in s.events if e.kind.value != "gate"]
    assert moves == [(2, 3), (6, 7), (5, 6)]
    assert not replay(s)


def bounds_along(circuit, graph, mapping, events):
    """``_hop_bound`` before the first event and after each one, with the
    kind of that event and the shuttles left after it."""
    bound = _hop_bound(circuit, graph)
    state = MachineState(graph, mapping, circuit.n_qubits)
    executed = 0
    left = sum(ev.kind is EventKind.SHUTTLE for ev in events)

    def now():
        traps = [graph.node_trap[state.mapping[q]] for q in range(circuit.n_qubits)]
        return bound(traps, executed)
    out = [(None, now(), left)]
    for ev in events:
        if ev.kind is EventKind.GATE:
            executed |= 1 << ev.gate_id
        else:
            state.apply_generic_swap(*ev.slots)
            left -= ev.kind is EventKind.SHUTTLE
        out.append((ev.kind, now(), left))
    return out


def test_start_bound_is_at_most_the_optimal_shuttle_count():
    rng = random.Random(4)
    positive = 0
    for _ in range(100):
        c, g, m = random_instance(rng, max_traps=4, max_gates=5)
        ref = reference_exact(c, g, m, OracleLimits(max_depth=4))
        if isinstance(ref, Infeasible):
            continue
        start = bounds_along(c, g, m, [])[0][1]
        assert start <= ref[1]
        positive += start > 0
    assert positive >= 30


def test_bound_is_consistent_along_schedules():
    """Along optimal and heuristic schedules the bound never exceeds the
    shuttles still to come, drops by at most 1 per shuttle and does not move
    on a SWAP, a space shift or a gate."""
    rng = random.Random(8)
    shuttles = 0
    for _ in range(100):
        c, g, m = random_instance(rng, max_gates=5)
        opt = exact_schedule(c, g, m)
        for sched in ([] if isinstance(opt, Infeasible) else [opt]) + [schedule(c, g, m)]:
            steps = bounds_along(c, g, m, sched.events)
            for (_, before, _), (kind, after, left) in zip(steps, steps[1:]):
                assert after <= left
                if kind is EventKind.SHUTTLE:
                    assert after >= before - 1
                    shuttles += 1
                else:
                    assert after == before
    assert shuttles >= 200


def test_bound_sums_hops_over_qubit_disjoint_gates():
    """Two qubit-disjoint gates, each one trap hop apart: the bound is 2,
    where the largest hop count of any one gate is 1."""
    g = to_graph(linear_topology(2, 3), WeightParams())
    gates = (Gate(0, "cx", (0, 1)), Gate(1, "cx", (2, 3)))
    c = Circuit(4, gates)
    mapping = {0: 0, 2: 1, 1: 3, 3: 4}
    traps = [g.node_trap[mapping[q]] for q in range(4)]
    bound = _hop_bound(c, g)
    assert bound(traps, 0) == 2
    # with every other gate executed, the bound is one gate's hop count
    assert max(bound(traps, 0b11 ^ 1 << gate.id) for gate in gates) == 1
    assert optimum(exact_schedule(c, g, mapping))[1] >= 2


def test_depth_pruning_pushes_only_paths_that_can_still_finish(monkeypatch):
    """No path is pushed whose length plus the hop bound exceeds the depth
    limit, and the result is still the reference's, on draws that need more
    shuttles than the limit allows as well as ones that fit."""
    pushed = []

    class CountingHeap:
        heappop = staticmethod(heapq.heappop)

        @staticmethod
        def heappush(heap, entry):
            pushed.append((len(entry[1]), entry[-1]))
            heapq.heappush(heap, entry)

    monkeypatch.setattr(oracle, "heapq", CountingHeap)
    rng = random.Random(31)
    depth, verdicts = 3, set()
    for _ in range(40):
        c, g, m = random_instance(rng, max_traps=4, max_gates=5)
        limits = OracleLimits(max_depth=depth)
        got = exact_schedule(c, g, m, limits)
        assert optimum(got) == reference_exact(c, g, m, limits)
        verdicts.add(isinstance(got, Infeasible))
    assert verdicts == {True, False}
    assert pushed and all(length + h <= depth for length, h in pushed)


def test_a_pruned_path_no_longer_blocks_a_shorter_one():
    """Four traps in a chain, and a two-junction path from trap 1 to trap 3.
    The best schedule within three moves takes the dear path, (5.0, 3, 0),
    and so does the search over (state, depth) pairs.  A cheaper path of
    more moves reaches a state on the way first; a search that keeps one
    path per state regardless of depth, and prunes nothing, let it keep the
    shorter one out and found no schedule.  Pruned as too long to finish,
    that path blocks nothing.  With a fourth move the cheaper route fits."""
    topo = Topology(tuple(Trap(i, c) for i, c in enumerate((3, 3, 2, 3))),
                    (Path(0, 1), Path(1, 2), Path(2, 3), Path(1, 3, 1, (1, 2))),
                    tuple(Junction(j, 3) for j in range(3)))
    g = to_graph(topo, WeightParams())
    c = Circuit(4, (Gate(0, "cx", (2, 0)), Gate(1, "cx", (1, 0))))
    mapping = {0: 8, 1: 2, 2: 1, 3: 0}
    limits = OracleLimits(max_depth=3)
    s = exact_schedule(c, g, mapping, limits)
    assert optimum(s) == reference_exact(c, g, mapping, limits) == (5.0, 3, 0)
    assert not replay(s)
    deeper = optimum(exact_schedule(c, g, mapping, OracleLimits(max_depth=4)))
    assert deeper == reference_exact(c, g, mapping, OracleLimits(max_depth=4))
    assert deeper[0] < 5.0


def test_a_cheaper_longer_path_no_longer_keeps_a_shorter_one_out():
    """Two parallel paths join traps 0 and 1.  Within four moves the only
    schedule costs (10.0, 4, 0).  A cheaper path of more moves, not pruned
    by the hop bound, reaches a state on the way before the shorter one;
    when each state kept one path regardless of depth, the search reported
    no schedule.  A state is now expanded again when reached in fewer moves."""
    topo = Topology(tuple(Trap(i, c) for i, c in enumerate((2, 2, 3))),
                    (Path(0, 1, 2), Path(1, 2, 2, (0, 1)), Path(2, 0, 3), Path(0, 1, 2)),
                    (Junction(0, 3), Junction(1, 3)))
    g = to_graph(topo, WeightParams())
    c = Circuit(4, tuple(Gate(i, "cx", pair) for i, pair in
                         enumerate([(1, 0), (1, 3), (3, 0), (3, 1), (2, 0)])))
    mapping = {0: 6, 1: 0, 2: 5, 3: 3}
    limits = OracleLimits(max_depth=4)
    s = exact_schedule(c, g, mapping, limits)
    assert optimum(s) == reference_exact(c, g, mapping, limits) == (10.0, 4, 0)
    assert not replay(s)
