import math

import pytest
from hypothesis import given, strategies as st

from qccdc import (CostParams, EventKind, GateFamily, MappingParams,
                   WeightParams, evaluate, gate_duration, gate_fidelity,
                   grid_topology, initial_mapping, schedule, shuttle_duration,
                   to_graph)
from qccdc.bench import qft
from qccdc.costmodel import TimedEvent


def test_fm_durations():
    assert gate_duration(GateFamily.FM, 4, 0) == pytest.approx(100.0)
    assert gate_duration(GateFamily.FM, 16, 0) == pytest.approx(159.28, abs=0.01)
    # chain-length floor
    assert gate_duration(GateFamily.FM, 2, 0) == pytest.approx(100.0)


def test_pm_am_durations():
    assert gate_duration(GateFamily.PM, 8, 3) == pytest.approx(175.0)
    assert gate_duration(GateFamily.AM1, 8, 1) == pytest.approx(78.0)
    assert gate_duration(GateFamily.AM2, 8, 0) == pytest.approx(10.0)
    with pytest.warns(UserWarning):
        assert gate_duration(GateFamily.AM1, 8, 0) == pytest.approx(78.0)


def test_shuttle_durations():
    p = CostParams()
    assert shuttle_duration(1, [], p) == pytest.approx(165.0)       # 80+5+80
    assert shuttle_duration(2, [3], p) == pytest.approx(80 + 10 + 100 + 80)
    # 3-way junction crossing alone: 40 + 20*3 = 100
    assert shuttle_duration(1, [3], p) - shuttle_duration(1, [], p) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        shuttle_duration(0, [], p)


def test_fidelity_formula():
    p = CostParams()
    # 1 - Gamma*tau(us->s) - a0*N/ln(N) * (2*nbar+1)
    import math
    tau, n, nbar = 100.0, 4, 0.5
    expect = 1.0 - 1.0 * 100e-6 - 1e-4 * 4 / math.log(4) * 2.0
    assert gate_fidelity(tau, n, nbar, p) == pytest.approx(expect)
    assert gate_fidelity(1e12, 4, 0.0, p) == 0.0    # clamped
    with pytest.raises(ValueError):
        gate_fidelity(100.0, 1, 0.0, p)


@given(st.floats(0, 1e4), st.floats(0, 1e4), st.floats(0, 50), st.floats(0, 50),
       st.integers(2, 40))
def test_fidelity_monotone(t1, t2, n1, n2, ions):
    p = CostParams()
    lo_t, hi_t = sorted((t1, t2))
    lo_n, hi_n = sorted((n1, n2))
    assert gate_fidelity(hi_t, ions, lo_n, p) <= gate_fidelity(lo_t, ions, lo_n, p)
    assert gate_fidelity(lo_t, ions, hi_n, p) <= gate_fidelity(lo_t, ions, lo_n, p)


def make_schedule():
    c = qft(8)
    g = to_graph(grid_topology(2, 2, 4), WeightParams())
    m = initial_mapping(c, g, MappingParams())
    return schedule(c, g, m)


def test_evaluate_counts_and_makespan():
    s = make_schedule()
    metrics = evaluate(s)
    assert metrics.to_dict()["two_qubit_gates"] == s.metrics["two_qubit_gates"]
    assert metrics.shuttles == s.metrics["shuttles"]
    assert metrics.makespan_us > 0
    assert 0 < metrics.success_rate < 1
    # makespan >= the longest single-trap serial load
    per_resource = {}
    for te in metrics.timeline:
        for t in te.event.traps:
            per_resource[t] = per_resource.get(t, 0.0) + te.duration_us
    assert metrics.makespan_us >= max(per_resource.values()) - 1e-9


def test_timeline_is_a_read_only_sequence_of_timed_events():
    """``evaluate`` keeps flat per-event lists; the timeline builds the
    ``TimedEvent``s from them on read, the same on every read."""
    s = make_schedule()
    metrics = evaluate(s)
    timeline = metrics.timeline
    assert len(timeline) == len(s.events) > 0
    listed = list(timeline)
    assert all(type(te) is TimedEvent for te in listed)
    assert [te.event for te in listed] == s.events
    assert [timeline[i] for i in range(len(timeline))] == listed
    assert [timeline[-i] for i in range(1, len(timeline) + 1)] == listed[::-1]
    with pytest.raises(IndexError):
        timeline[len(timeline)]
    with pytest.raises(TypeError):
        timeline[1:4]
    assert timeline == listed and listed == timeline
    assert not (timeline != listed) and not (listed != timeline)
    assert timeline != listed[:-1] and listed[:-1] != timeline
    assert list(timeline) == listed and list(timeline) is not listed
    assert timeline == evaluate(s).timeline
    # read-only: no item assignment, and its lists are not attributes
    with pytest.raises(TypeError):
        timeline[0] = listed[0]
    with pytest.raises(AttributeError):
        timeline.starts = []
    # the flat lists time each event as the makespan says
    assert max(te.start_us + te.duration_us for te in listed) == metrics.makespan_us


def test_no_resource_overlap():
    s = make_schedule()
    metrics = evaluate(s)
    busy = {}
    for te in metrics.timeline:
        resources = list(te.event.traps) + [("j", j) for j in te.event.junction_ids]
        for r in resources:
            busy.setdefault(r, []).append((te.start_us, te.start_us + te.duration_us))
    for intervals in busy.values():
        intervals.sort()
        for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-9


def test_relaxed_bounds_never_worse():
    s = make_schedule()
    base = evaluate(s)
    no_swap = evaluate(s, relax_swap=True)
    no_shuttle = evaluate(s, relax_shuttle=True)
    ideal = evaluate(s, relax_swap=True, relax_shuttle=True)
    assert no_swap.success_rate >= base.success_rate
    assert no_shuttle.success_rate >= base.success_rate
    assert ideal.success_rate >= max(no_swap.success_rate, no_shuttle.success_rate)
    assert ideal.makespan_us <= base.makespan_us + 1e-9


def test_heat_accumulates_into_fidelity():
    """A two-qubit gate in a trap some shuttle has entered has strictly lower
    fidelity than the same gate graded with k1 = k2 = 0; a gate in a trap no
    shuttle has entered yet has the same fidelity."""
    s = make_schedule()
    hot = evaluate(s, CostParams()).timeline
    cold = evaluate(s, CostParams(k1=0.0, k2=0.0)).timeline
    entered = set()
    heated = 0
    for h, c in zip(hot, cold):
        ev = h.event
        if ev.kind is EventKind.SHUTTLE:
            entered.add(ev.traps[1])
        elif ev.kind is EventKind.GATE and len(ev.qubits) == 2:
            if ev.traps[0] in entered:
                assert h.fidelity < c.fidelity
                heated += 1
            else:
                assert h.fidelity == c.fidelity
    assert heated, "the schedule must run a gate in a trap a shuttle entered"


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(single_qubit_fidelity=0.0)
    with pytest.raises(ValueError):
        CostParams(move_us=-1.0)
    with pytest.raises(ValueError):
        # a negative SWAP duration would start later events before time 0
        CostParams(swap_gate_multiplier=-1)
    # negative heating or error scales would report a success above the
    # noise-free one
    for name in ("gamma", "k1", "k2", "a0", "move_us"):
        for bad in (-1e-3, math.nan):
            with pytest.raises(ValueError, match=name):
                CostParams(**{name: bad})
        CostParams(**{name: 0.0})


def test_equal_gate_grades_share_their_floats():
    """A two-qubit grade depends on (chain_ions, ion_dist, nbar of the trap)
    alone, so one ``evaluate`` grades each distinct triple once and its
    events share the duration and fidelity floats."""
    s, p = make_schedule(), CostParams()
    m = evaluate(s, p)
    by_key = {}
    nbar = {t: 0.0 for t in m.nbar}
    for te in m.timeline:
        ev = te.event
        if ev.kind is EventKind.SHUTTLE:
            nbar[ev.traps[1]] += p.k1 + p.k2 * ev.segments
        elif ev.kind is EventKind.GATE and len(ev.qubits) == 2:
            key = (ev.chain_ions, ev.ion_dist, nbar[ev.traps[0]])
            by_key.setdefault(key, set()).add((id(te.duration_us), id(te.fidelity)))
    assert sum(map(len, by_key.values())) == len(by_key) < s.metrics["two_qubit_gates"]
