"""End-to-end acceptance gate.

One test per release criterion; each prints a single PASS line on success so
the suite output doubles as a checklist.  Criterion 7 is a directional trend
check: a violation flags the fixture loudly instead of failing the build.
"""

import json
import random
import time

import pytest

import qccdc as q


def report(name, ok=True, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}: {name} {detail}".rstrip())


# -- criterion 1: generator counts ------------------------------------------

def test_criterion_1_generator_counts():
    t0 = time.perf_counter()
    assert q.gen_benchmark("qft", 24).two_qubit_count == 552
    assert q.gen_benchmark("qft", 64).two_qubit_count == 4032
    c = q.gen_benchmark("bv", 64)
    assert c.n_qubits == 65 and c.two_qubit_count == 64
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("criterion 1 (generator two-qubit counts exact)", detail=f"{elapsed:.2f}s")


# -- criteria 2 and 4: validity matrix + baseline ordering -------------------

BENCH_MATRIX = [("qft", 24, {}), ("bv", 16, {}), ("qaoa_chain", 16, {"layers": 4}),
                ("cuccaro_adder", 4, {}), ("heisenberg", 8, {"trotter_steps": 2})]
TOPOLOGIES = [("L(4)", q.linear_topology(4, 8)), ("G(2,2)", q.grid_topology(2, 2, 8)),
              ("S(4)", q.star_topology(4, 8))]
STRATEGIES = ["even", "gather", "sta"]


@pytest.fixture(scope="module")
def matrix_schedules():
    t0 = time.perf_counter()
    out = {}
    for name, size, kw in BENCH_MATRIX:
        circuit = q.gen_benchmark(name, size, **kw)
        for topo_name, topo in TOPOLOGIES:
            graph = q.to_graph(topo, q.WeightParams())
            for strat in STRATEGIES:
                mapping = q.initial_mapping(
                    circuit, graph, q.MappingParams(strategy=q.Strategy(strat)))
                sched = q.schedule(circuit, graph, mapping)
                out[(name, size, topo_name, strat)] = sched
    return out, time.perf_counter() - t0


def test_criterion_2_validity_matrix(matrix_schedules):
    schedules, elapsed = matrix_schedules
    assert len(schedules) == len(BENCH_MATRIX) * len(TOPOLOGIES) * len(STRATEGIES)
    for key, sched in schedules.items():
        violations = q.replay(sched)
        assert not violations, f"{key}: {violations[:3]}"
    assert elapsed < 60.0, f"matrix took {elapsed:.1f}s"
    report("criterion 2 (45-schedule validity matrix, zero violations)",
           detail=f"{elapsed:.1f}s")


def test_criterion_4_baseline_ordering(matrix_schedules):
    schedules, _ = matrix_schedules
    params = q.CostParams()
    for key, sched in schedules.items():
        none = q.evaluate(sched, params).success_rate
        p_sh = q.ideal_bounds(sched, q.BoundMode.PERFECT_SHUTTLE, params).success_rate
        p_sw = q.ideal_bounds(sched, q.BoundMode.PERFECT_SWAP, params).success_rate
        ideal = q.ideal_bounds(sched, q.BoundMode.IDEAL, params).success_rate
        assert ideal >= p_sh >= none, key
        assert ideal >= p_sw >= none, key
    report("criterion 4 (ideal >= perfect-X >= none on all 45 schedules)")


# -- criterion 3: oracle optimality gap --------------------------------------

def test_criterion_3_oracle_gap():
    t0 = time.perf_counter()
    rng = random.Random(12345)
    total = within = optimal = 0
    while total < 100:
        circuit, graph, mapping = q.random_instance(rng)
        opt = q.exact_schedule(circuit, graph, mapping)
        if isinstance(opt, q.Infeasible):
            continue
        heur = q.schedule(circuit, graph, mapping)
        total += 1
        h, o = heur.inserted_weight, opt.inserted_weight
        ratio = h / o if o > 0 else (1.0 if h == 0 else float("inf"))
        if ratio <= 1.5:
            within += 1
        if abs(h - o) < 1e-9:
            optimal += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert within >= 90, f"only {within}/100 within 1.5x of optimum"
    assert optimal >= 50, f"only {optimal}/100 optimal"
    report("criterion 3 (oracle gap over 100 instances)",
           detail=f"within1.5x={within}/100 optimal={optimal}/100 {elapsed:.1f}s")


# -- criterion 5: cost-model point checks ------------------------------------

def test_criterion_5_cost_points():
    F = q.GateFamily
    assert q.gate_duration(F.FM, 4, 0) == 100.0
    assert abs(q.gate_duration(F.FM, 16, 0) - 159.28) <= 0.01
    assert q.gate_duration(F.PM, 8, 3) == 175.0
    assert q.gate_duration(F.AM2, 8, 0) == 10.0
    p = q.CostParams()
    assert q.shuttle_duration(1, [], p) == 165.0
    assert q.shuttle_duration(1, [3], p) - q.shuttle_duration(1, [], p) == 100.0
    report("criterion 5 (duration formulas at the pinned points)")


# -- criterion 6: weight-scale invariance ------------------------------------

def test_criterion_6_weight_scale_invariance():
    circuit = q.gen_benchmark("qft", 16)
    topo = q.grid_topology(2, 2, 8)

    def signature(wp):
        graph = q.to_graph(topo, wp)
        mapping = q.initial_mapping(circuit, graph, q.MappingParams())
        sched = q.schedule(circuit, graph, mapping)
        return repr([(e.kind.value, e.qubits, e.slots) for e in sched.events]).encode()

    base = signature(q.WeightParams())
    for r in (1e2, 1e3, 1e5):
        scaled = signature(q.WeightParams(inner_weight=0.001 * r, shuttle_base=1.0 * r))
        assert scaled == base, f"schedule changed at scale {r:g}"
    report("criterion 6 (byte-identical schedules at scales 1e2/1e3/1e5)")


# -- criterion 7: mapping trend (flag, don't fail) ----------------------------

def test_criterion_7_mapping_trend():
    circuit = q.gen_benchmark("cuccaro_adder", 8)
    graph = q.to_graph(q.grid_topology(2, 3, 8), q.WeightParams())
    shuttles = {}
    for strat in ("even", "gather"):
        mapping = q.initial_mapping(circuit, graph,
                                    q.MappingParams(strategy=q.Strategy(strat)))
        shuttles[strat] = q.schedule(circuit, graph, mapping).metrics["shuttles"]
    if shuttles["gather"] <= shuttles["even"]:
        report("criterion 7 (gathering <= even shuttles on cuccaro_adder(8)/G(2,3))",
               detail=f"gather={shuttles['gather']} even={shuttles['even']}")
    else:
        # trend check only: record the fixture rather than failing the build
        report("criterion 7 (mapping trend)", ok=False,
               detail=f"FLAGGED gather={shuttles['gather']} > even={shuttles['even']} "
                      f"fixture=cuccaro_adder(8)/G(2,3)/cap8")


# -- criterion 8: determinism & scalability -----------------------------------

def test_criterion_8_determinism_and_scaling(tmp_path):
    from qccdc.cli import main

    outs = []
    t0 = time.perf_counter()
    for i in range(2):
        out = tmp_path / f"run{i}.json"
        rc = main(["compile", "--gen", "qft:24", "--topology", "G2x2:22",
                   "--out", str(out)])
        assert rc == 0
        d = json.loads(out.read_text())
        assert d.pop("compile_ms") < 10_000
        outs.append(d)
    assert outs[0] == outs[1]
    two_runs = time.perf_counter() - t0
    assert two_runs < 20.0  # < 10 s per compile

    t0 = time.perf_counter()
    circuit = q.gen_benchmark("qft", 64)
    graph = q.to_graph(q.grid_topology(2, 3, 17), q.WeightParams())
    mapping = q.initial_mapping(circuit, graph, q.MappingParams())
    q.schedule(circuit, graph, mapping)
    big = time.perf_counter() - t0
    assert big < 300.0
    report("criterion 8 (identical metrics JSON; qft24 < 10s, qft64 < 5min)",
           detail=f"qft24x2={two_runs:.1f}s qft64={big:.1f}s")


# -- criterion 9: monotonicity ------------------------------------------------

def test_criterion_9_monotonicity():
    params = q.CostParams()
    taus = [i * 40.0 for i in range(10)]
    nbars = [i * 0.7 for i in range(10)]
    for nbar in nbars:
        vals = [q.gate_fidelity(t, 8, nbar, params) for t in taus]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    for tau in taus:
        vals = [q.gate_fidelity(tau, 8, n, params) for n in nbars]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    # the cost model's nbar non-decreasing along a real schedule, checked
    # over every prefix of its events
    circuit = q.gen_benchmark("qft", 12)
    graph = q.to_graph(q.grid_topology(2, 2, 4), q.WeightParams())
    mapping = q.initial_mapping(circuit, graph, q.MappingParams())
    sched = q.schedule(circuit, graph, mapping)
    assert any(ev.kind is q.EventKind.SHUTTLE for ev in sched.events)
    prev = q.evaluate(q.Schedule([], circuit, graph, sched.initial_mapping), params).nbar
    for i in range(1, len(sched.events) + 1):
        prefix = q.Schedule(sched.events[:i], circuit, graph, sched.initial_mapping)
        now = q.evaluate(prefix, params).nbar
        assert all(now[t] >= prev[t] for t in now)
        prev = now
    report("criterion 9 (fidelity monotone on 100-point grid; nbar non-decreasing)")
