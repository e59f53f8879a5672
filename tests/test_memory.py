"""The per-gate memory floor of a compile: what parse, ``schedule`` and
``evaluate`` keep per gate of a deep two-trap circuit, where there are few
moves and every layer pays per gate."""

import gc
import tracemalloc

from qccdc import (MappingParams, evaluate, gen_benchmark, initial_mapping, parse_qasm,
                   parse_topology_spec, schedule, to_graph, to_qasm)

# a gate, its event and its slots in the timeline's columns; the operand,
# slot and trap tuples and the grade floats are shared
BYTES_PER_GATE = 425


def compile_and_grade(text, graph):
    circuit = parse_qasm(text)
    sched = schedule(circuit, graph, initial_mapping(circuit, graph, MappingParams()))
    return circuit, sched, evaluate(sched)


def test_bytes_kept_per_gate_stay_within_budget():
    text = to_qasm(gen_benchmark("heisenberg", 16, trotter_steps=40))
    graph = to_graph(parse_topology_spec("L2:40"))
    compile_and_grade(text, graph)  # first calls fill lazy caches untraced
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        circuit, sched, metrics = compile_and_grade(text, graph)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = len(circuit.gates)
    assert n == 1800 and len(metrics.timeline) == len(sched.events) >= n
    assert kept <= BYTES_PER_GATE * n, f"{kept / n:.0f} bytes per gate"
