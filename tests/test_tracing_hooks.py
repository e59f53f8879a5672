"""The benchmark's tracer wraps program functions by name.

``benchmarks/tracing.py`` replaces ``qccdc`` and ``qccdc.scheduler``
attributes that the program looks up at call time.  A rename there would
only break ``benchmarks/run.py --trace 1``; this test makes it fail here.
"""

import sys
from pathlib import Path

import qccdc as q

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import tracing  # noqa: E402


def test_tracer_counts_the_scheduler_hooks_and_restores_them():
    owners = (q, q.scheduler, q.mapping, q.MachineState)
    before = {(o, a): v for o in owners for a, v in vars(o).items() if callable(v)}
    tracer = tracing.Tracer()
    tracer.install(q)
    try:
        tracer.begin("compile")
        circuit = q.gen_benchmark("qft", 8)
        graph = q.to_graph(q.parse_topology_spec("G2x2:4"))
        sched = q.schedule(circuit, graph, q.initial_mapping(circuit, graph))
        q.evaluate(sched)
        out = tracer.take(0.0)
    finally:
        tracer.uninstall()
    totals, counts = out["totals"], out["counts"]
    for name in ("to_graph", "initial_mapping", "schedule", "build_dag", "distance_table",
                 "candidates", "plan_escape", "evaluate"):
        assert totals[name][0] > 0, name
    # one DAG for initial_mapping's layers and one for schedule: a build that
    # stopped going through the wrapped attributes would drop out of the count
    assert totals["build_dag"][0] == 2
    assert counts["planned_ops"] > 0 and counts["apply_generic_swap"] > 0
    # each move classifies its edge through the counted method: the traced
    # ``state.classify_calls`` would otherwise read 0 in the compile phase
    assert counts["classify"] == counts["apply_generic_swap"]
    after = {(o, a): v for o in owners for a, v in vars(o).items() if callable(v)}
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
