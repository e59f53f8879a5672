"""Schedule digests: any change to what the scheduler emits shows up here.

Each digest is a SHA-256 over every field of every event, in order (the
formula of ``benchmarks/checker.py``).  The recorded values come from the
scheduler before its candidate scan was vectorised; a change that moves one
must say why its schedules differ.  The ``exact_schedule`` digests pin which
optimum the oracle returns among equal-cost paths, and its Infeasible
verdicts, hashed as ``("infeasible", depth)``.
"""

import hashlib
import random

import pytest

import qccdc.scheduler as scheduler
from qccdc import (Infeasible, MappingParams, OracleLimits, Strategy, exact_schedule,
                   gen_benchmark, initial_mapping, parse_topology_spec, random_instance,
                   schedule, to_graph)

CASES = {
    # (generator, size, params, topology, mapping): digest
    ("qft", 8, (), "L3:4", "gather"):
        "382a4ce6105cfc3e8900244e709b9d06324ca1db2e71b2c0519badb0d424639b",
    ("qft", 10, (), "G2x2:4", "even"):
        "874e6b3afe96110c1773081188b7969cae9aeeca2260135bd4644a079e76b097",
    ("heisenberg", 8, (("trotter_steps", 2),), "S4:4", "sta"):
        "5668c60e387c97fecfac7a13c3e0f31f8a3d5c7a900b609bc4ec163248c72bc5",
    ("qaoa_chain", 12, (("layers", 3),), "L3:6", "even"):
        "54c3d2679d5443eb4f7603487f8a067b273fb83840a6c9f0728fec7b223300ce",
    ("qft", 16, (), "G2x3:5", "gather"):
        "54a2e6a3ff84886ea16b1f521d024bebc245e95cbc1c0c5cad1688aa7b1e7860",
    ("alt", 12, (("layers", 4),), "S3:6", "sta"):
        "bb06d3a736605a437a2cea15f8b1f116ac23fbb596782e43320fb6aad2ebcb08",
}
# 60 draws of random_instance(random.Random(2025)), hashed as one stream
POOL_SEED, POOL_SIZE = 2025, 60
POOL_DIGEST = "560eb8a20b934adf8fff571fe2cd190f86efc13180a9db28f7d7c95aba1cc0d8"
ORACLE_POOLS = {
    # (seed, draws, random_instance shape, max_depth): digest of exact_schedule's results
    (12345, 40, (), 8):
        "f7b1be1c4232f5bb15557d8d05db6d0a1d5ebd2bc58693754f7f0067319e34ca",
    (31, 100, (("max_traps", 4), ("max_gates", 5)), 4):   # 35 are Infeasible
        "21cd2f2121b95bda19d7d8d91de40ec59d145ad101d9d3e84e4cadcc02b0fdc8",
}


def digest(events, h=None):
    h = h or hashlib.sha256()
    for ev in events:
        h.update(repr((ev.kind.value, tuple(ev.qubits), ev.gate_id, ev.label, tuple(ev.slots),
                       tuple(ev.traps), ev.segments, tuple(ev.junction_ids),
                       tuple(ev.junction_degrees), ev.weight, ev.chain_ions,
                       ev.ion_dist)).encode())
    return h


@pytest.fixture
def numpy_scans(monkeypatch):
    """Counts the scans scored by the numpy path."""
    calls = []
    original = scheduler.heuristic_scores

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scheduler, "heuristic_scores", counted)
    return calls


@pytest.mark.parametrize("case", list(CASES), ids=lambda c: f"{c[0]}{c[1]}-{c[3]}-{c[4]}")
def test_schedule_digest(case):
    gen, size, params, topo, strategy = case
    circuit = gen_benchmark(gen, size, **dict(params))
    graph = to_graph(parse_topology_spec(topo))
    mapping = initial_mapping(circuit, graph, MappingParams(strategy=Strategy(strategy)))
    assert digest(schedule(circuit, graph, mapping).events).hexdigest() == CASES[case]


def test_digest_cases_cover_both_scoring_paths(numpy_scans):
    circuit = gen_benchmark("qft", 16)
    graph = to_graph(parse_topology_spec("G2x3:5"))
    schedule(circuit, graph, initial_mapping(circuit, graph, MappingParams()))
    assert numpy_scans  # scans at or above VECTOR_MIN_PAIRS


def test_random_pool_digest(numpy_scans):
    rng = random.Random(POOL_SEED)
    h = hashlib.sha256()
    for _ in range(POOL_SIZE):
        circuit, graph, mapping = random_instance(rng)
        digest(schedule(circuit, graph, mapping).events, h)
    assert h.hexdigest() == POOL_DIGEST
    assert not numpy_scans  # tiny instances: every scan stays below the constant


@pytest.mark.parametrize("pool", list(ORACLE_POOLS), ids=lambda p: f"seed{p[0]}-depth{p[3]}")
def test_exact_schedule_pool_digest(pool):
    seed, draws, shape, depth = pool
    rng = random.Random(seed)
    limits = OracleLimits(max_depth=depth)
    h = hashlib.sha256()
    for _ in range(draws):
        res = exact_schedule(*random_instance(rng, **dict(shape)), limits)
        if isinstance(res, Infeasible):
            h.update(repr(("infeasible", res.depth)).encode())
        else:
            digest(res.events, h)
    assert h.hexdigest() == ORACLE_POOLS[pool]
