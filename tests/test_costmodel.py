import pytest
from hypothesis import given, strategies as st

from qccdc import (CostParams, EventKind, GateFamily, MappingParams,
                   WeightParams, evaluate, gate_duration, gate_fidelity,
                   grid_topology, initial_mapping, schedule, shuttle_duration,
                   to_graph)
from qccdc.bench import qft


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
    """Later gates in a heated trap lose fidelity relative to a cold replay."""
    s = make_schedule()
    metrics = evaluate(s)
    heated = [te for te in metrics.timeline
              if te.event.kind is EventKind.GATE and len(te.event.qubits) == 2]
    assert heated, "schedule must contain two-qubit gates"
    assert all(te.fidelity is not None and te.fidelity < 1.0 for te in heated)


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(single_qubit_fidelity=0.0)
    with pytest.raises(ValueError):
        CostParams(move_us=-1.0)
    with pytest.raises(ValueError):
        # a negative SWAP duration would start later events before time 0
        CostParams(swap_gate_multiplier=-1)
