"""The four benchmark workloads and the seeded construction of their inputs.

Each workload is a fixed list of routing problems.  The seed changes how
each problem is presented to the compiler, never the problem itself:

* circuit workloads: every gate is re-spelled with a seed-drawn name of the
  same arity and parameter-ness (``cx``/``cz``/``ms``, ``rzz``/``rxx``/...)
  and every rotation angle is redrawn, so the QASM text differs per seed;
* ``oracle_gap``: the instances come from a fixed pool and the seed applies a
  random relabelling of the logical qubits (to the circuit and the mapping
  alike) plus the same gate re-spelling.

The compiler ignores gate names and angles when routing, and a consistent
qubit relabelling yields an isomorphic instance, so the routing counts,
makespan and success are the same on every seed while parsing and every
other per-gate cost sees different text.  This keeps the quality metrics
comparable between runs of one commit; fresh routing problems are a
different workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# gate spellings the compiler treats identically, by (arity, has parameter)
SPELLINGS = {
    (1, False): ("h", "x", "y", "z", "s", "sdg", "t", "tdg"),
    (1, True): ("rx", "ry", "rz", "u1"),
    (2, False): ("cx", "cz", "ms"),
    (2, True): ("rzz", "rxx", "ryy", "cp", "cu1"),
}

ORACLE_POOL_SEED = 12345   # the pool acceptance criterion 3 draws from
ORACLE_POOL_SIZE = 40
ORACLE_COMPILE_REPEATS = 10  # one heuristic pass over 40 tiny instances is ~30 ms
CIRCUIT_VERIFY_REPEATS = 3   # replaying a circuit workload's schedules takes 0.05-0.3 s


@dataclass(frozen=True)
class CircuitJob:
    """One compile job: a generated circuit on a topology under a mapping."""

    gen: str
    size: int
    params: tuple[tuple[str, int], ...]
    topology: str
    strategy: str

    @property
    def name(self) -> str:
        extra = "".join(f",{k}={v}" for k, v in self.params)
        return f"{self.gen}:{self.size}{extra}@{self.topology}/{self.strategy}"


def _jobs(*specs) -> tuple[CircuitJob, ...]:
    return tuple(CircuitJob(g, n, tuple(sorted(p.items())), topo, strat)
                 for g, n, p, topo, strat in specs)


CIRCUIT_WORKLOADS = {
    # routing-bound compiles at the paper's scale
    "route_heavy": _jobs(
        ("qft", 64, {}, "G2x3:17", "gather"),
        ("alt", 64, {"layers": 25}, "G2x2:22", "sta"),
        ("qaoa_chain", 32, {"layers": 100}, "L4:12", "gather"),
    ),
    # ~10^4-gate circuits on two large traps: nearly every gate is local
    "deep_local": _jobs(
        ("heisenberg", 32, {"trotter_steps": 200}, "L2:40", "gather"),
        ("qaoa_chain", 38, {"layers": 120}, "L2:40", "gather"),
        ("heisenberg", 40, {"trotter_steps": 100}, "L2:22", "gather"),
    ),
    # short circuits on ~270-slot L, G and S devices (the topology study);
    # the adder routes several times more than the others, so it runs on one
    # device only and the distance table stays the largest cost
    "device_scale": _jobs(*[
        (gen, n, {}, topo, "gather")
        for gen, n in (("bv", 64), ("qft", 32))
        for topo in ("L9:30", "G3x3:30", "S9:30")
    ], ("cuccaro_adder", 16, {}, "S9:30", "gather")),
}

WORKLOADS = tuple(CIRCUIT_WORKLOADS) + ("oracle_gap",)


def respell(q, circuit, rng: random.Random, perm=None):
    """Same gate structure, seed-drawn gate names and angles, qubits mapped
    through ``perm`` when given."""
    gates = []
    for g in circuit.gates:
        has_param = g.param is not None
        label = rng.choice(SPELLINGS[(len(g.qubits), has_param)])
        param = rng.uniform(-math.pi, math.pi) if has_param else None
        qubits = tuple(perm[x] for x in g.qubits) if perm is not None else g.qubits
        gates.append(q.Gate(g.id, label, qubits, param))
    return q.Circuit(circuit.n_qubits, tuple(gates), name=circuit.name)


@dataclass
class CircuitInput:
    job: CircuitJob
    generated: object      # the generator's circuit (closed-form counts)
    circuit: object        # the respelled circuit the QASM text encodes
    qasm: str
    topology: object


@dataclass
class OracleInput:
    circuit: object
    graph: object
    mapping: dict


def build_inputs(q, workload: str, seed: int):
    """Everything a pass needs, made from ``seed`` alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle_gap":
        pool = random.Random(ORACLE_POOL_SEED)
        out = []
        for _ in range(ORACLE_POOL_SIZE):
            circuit, graph, mapping = q.random_instance(pool)
            perm = list(range(circuit.n_qubits))
            rng.shuffle(perm)
            out.append(OracleInput(respell(q, circuit, rng, perm), graph,
                                   {perm[x]: slot for x, slot in mapping.items()}))
        return out
    out = []
    for job in CIRCUIT_WORKLOADS[workload]:
        generated = q.gen_benchmark(job.gen, job.size, **dict(job.params))
        circuit = respell(q, generated, rng)
        out.append(CircuitInput(job, generated, circuit, q.to_qasm(circuit),
                                q.parse_topology_spec(job.topology)))
    return out
