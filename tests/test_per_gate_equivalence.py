"""The per-gate fast paths against the code they replaced.

``reference_parse_qasm`` is the parser that read every angle with ``eval``;
``reference_run_ready_gates`` drains by full passes over the frontier to a
fixpoint and measures ion distance by walking the slots; ``reference_dag``
builds the DAG with a predecessor set per gate.  The program must give the
same circuits, events and DAGs.  The parser's only intended differences are
the two rejections ``strict_eval_param`` adds: ``**`` and non-finite angles.
"""

import math
import random
import re
import struct

import pytest
from hypothesis import given, settings, strategies as st

from qccdc import (Circuit, Gate, MappingParams, QasmError, SchedulerParams, Strategy,
                   build_dag, exact_schedule, gen_benchmark, grid_topology, initial_mapping,
                   linear_topology, parse_qasm, random_instance, schedule, star_topology,
                   to_graph)
from qccdc import oracle, scheduler
from qccdc.circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES
from qccdc.events import EventKind, EventRecord
from qccdc.state import MachineState, run_ready_gates


# ---------------------------------------------------------------------------
# reference parser: every angle through eval
# ---------------------------------------------------------------------------

_QARG_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]$")
_PARAM_NAMES = {"pi": math.pi}


def reference_eval_param(expr: str, line_no: int) -> float:
    if not re.fullmatch(r"[0-9eE\.\+\-\*/\(\) pi]*", expr):
        raise QasmError(f"unsupported parameter expression '{expr}'", line_no)
    try:
        return float(eval(expr, {"__builtins__": {}}, _PARAM_NAMES))  # noqa: S307
    except Exception as exc:
        raise QasmError(f"bad parameter expression '{expr}': {exc}", line_no) from exc


def strict_eval_param(expr: str, line_no: int) -> float:
    """``reference_eval_param`` plus the two rejections the parser adds."""
    if "**" in expr and re.fullmatch(r"[0-9eE\.\+\-\*/\(\) pi]*", expr):
        raise QasmError(f"OpenQASM 2.0 has no '**' operator: '{expr}'", line_no)
    value = reference_eval_param(expr, line_no)
    if not math.isfinite(value):
        raise QasmError(f"parameter expression '{expr}' is not finite", line_no)
    return value


def reference_parse_qasm(text: str, name: str = "qasm",
                         eval_param=reference_eval_param) -> Circuit:
    n_qubits = None
    qreg_name = None
    gates: list[Gate] = []

    def parse_qubit(tok: str, line_no: int) -> int:
        m = _QARG_RE.match(tok.strip())
        if not m:
            raise QasmError(f"bad qubit reference '{tok.strip()}'", line_no)
        reg, idx = m.group(1), int(m.group(2))
        if reg != qreg_name:
            raise QasmError(f"unknown register '{reg}'", line_no)
        if idx >= n_qubits:
            raise QasmError(f"qubit index {idx} out of range (qreg size {n_qubits})", line_no)
        return idx

    def add(label, qubits, param=None):
        gates.append(Gate(len(gates), label, tuple(qubits), param))

    line_no = 0
    buffered = ""
    statements: list[tuple[int, str]] = []
    for raw in text.splitlines():
        line_no += 1
        code = raw.split("//", 1)[0]
        buffered += code
        while ";" in buffered:
            stmt, buffered = buffered.split(";", 1)
            stmt = stmt.strip()
            if stmt:
                statements.append((line_no, stmt))
    if buffered.strip():
        raise QasmError("unterminated statement", line_no)

    for ln, stmt in statements:
        head = stmt.split(None, 1)[0].split("(", 1)[0].lower()
        if head == "openqasm" or head == "include":
            continue
        if head == "qreg":
            m = re.match(r"qreg\s+([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]$", stmt)
            if not m:
                raise QasmError(f"bad qreg declaration '{stmt}'", ln)
            if n_qubits is not None:
                raise QasmError("multiple qreg declarations are not supported", ln)
            qreg_name, n_qubits = m.group(1), int(m.group(2))
            continue
        if head in ("creg", "barrier", "measure"):
            continue
        if n_qubits is None:
            raise QasmError("gate statement before qreg declaration", ln)

        m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*(\(([^)]*)\))?\s+(.*)$", stmt)
        if not m:
            raise QasmError(f"cannot parse statement '{stmt}'", ln)
        gate_name = m.group(1).lower()
        param = eval_param(m.group(3), ln) if m.group(3) is not None else None
        args = [parse_qubit(a, ln) for a in m.group(4).split(",")]

        if gate_name in ONE_QUBIT_GATES:
            if len(args) != 1:
                raise QasmError(f"{gate_name} expects 1 qubit", ln)
            add(gate_name, args, param)
        elif gate_name in TWO_QUBIT_GATES:
            if len(args) != 2:
                raise QasmError(f"{gate_name} expects 2 qubits", ln)
            if args[0] == args[1]:
                raise QasmError(f"{gate_name} with identical qubits", ln)
            add(gate_name, args, param)
        elif gate_name == "swap":
            if len(args) != 2 or args[0] == args[1]:
                raise QasmError("swap expects 2 distinct qubits", ln)
            a, b = args
            add("cx", (a, b))
            add("cx", (b, a))
            add("cx", (a, b))
        else:
            raise QasmError(f"unsupported gate '{gate_name}'", ln)

    if n_qubits is None:
        raise QasmError("no qreg declaration found")
    return Circuit(n_qubits, tuple(gates), name=name)


def outcome(parse, text):
    """A parse result comparable with ``==``: angles by their bits, errors
    by type, message and line."""
    try:
        c = parse(text)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc), getattr(exc, "line", None))
    return ("parsed", c.n_qubits,
            [(g.id, g.label, g.qubits, None if g.param is None else struct.pack("<d", g.param))
             for g in c.gates])


def expected_outcome(text):
    return outcome(lambda t: reference_parse_qasm(t, eval_param=strict_eval_param), text)


LITERALS = ["01", "1_0", ".5", "1.", "-0.0", "1e5", "pi/2", " 0.5 ", "0", "00", "-0", "+0",
            "-00", "+00", "0.0", "-0.", "-.0", "1e999", "-1e999", "1e-999", "-1e-400",
            "1.e5", "01.5", "01e5", "00.5", "1E+5", "+.5e-3", "-7", "+7", "- 1", "--1",
            "1e", "e5", ".", "", "1 2", "1e5.", "0x10", "1/0", "nan", "inf", "-pi", "(pi)",
            "2*pi/3", "2**3", "2**2**2", "2* *3", "1e308*10", "1e999-1e999",
            "1" * 308, "9" * 308, "1" * 309, "-" + "1" * 400, "1" * 4301, "0." + "3" * 400,
            "123456789012345678901234567890", "-9007199254740993", "9007199254740993.0"]

signs = st.sampled_from(["", "+", "-"])
digits = st.text("0123456789", min_size=0, max_size=25)
built_numbers = st.builds(
    lambda pad_l, sign, whole, dot, frac, exp, pad_r:
        f"{pad_l}{sign}{whole}{dot}{frac}{exp}{pad_r}",
    st.sampled_from(["", " ", "  "]), signs, digits, st.sampled_from(["", "."]), digits,
    st.one_of(st.just(""), st.builds(lambda e, s, d: f"{e}{s}{d}", st.sampled_from("eE"),
                                     signs, st.text("0123456789", min_size=0, max_size=4))),
    st.sampled_from(["", " "]))
angles = st.one_of(
    st.sampled_from(LITERALS),
    built_numbers,
    st.floats().map(repr),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.text("0123456789eE.+-*/() pi_", max_size=10),
)


@st.composite
def qasm_texts(draw):
    n = draw(st.integers(1, 4))
    stmts = ["OPENQASM 2.0", 'include "qelib1.inc"', f"qreg q[{n}]", f"creg c[{n}]"]
    qubit = st.integers(0, n)  # n is out of range: an error case
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["1q", "1q(", "2q", "2q(", "swap", "barrier", "measure"]))
        a, b = draw(qubit), draw(qubit)
        if kind == "1q":
            stmts.append(f"{draw(st.sampled_from(['h', 'x', 'T', 'bogus']))} q[{a}]")
        elif kind == "1q(":
            stmts.append(f"{draw(st.sampled_from(['rz', 'rx', 'U1']))}({draw(angles)}) q[{a}]")
        elif kind == "2q":
            stmts.append(f"{draw(st.sampled_from(['cx', 'ms', 'cz']))} q[{a}], q[{b}]")
        elif kind == "2q(":
            stmts.append(f"{draw(st.sampled_from(['rzz', 'cp']))}({draw(angles)}) q[{a}],q[{b}]")
        elif kind == "swap":
            stmts.append(f"swap q[{a}], q[{b}]")
        elif kind == "barrier":
            stmts.append("barrier q")
        else:
            stmts.append(f"measure q[{a}] -> c[{a}]")
    lines = []
    for stmt in stmts:
        layout = draw(st.sampled_from(["line", "comment", "split", "joined"]))
        if layout == "line":
            lines.append(stmt + ";")
        elif layout == "comment":
            lines.append(f"{stmt}; // {draw(st.sampled_from(['note', 'rz(1e999) q[0];']))}")
        elif layout == "split":
            cut = draw(st.integers(0, len(stmt)))
            lines += [stmt[:cut] + " // mid-statement", stmt[cut:] + ";"]
        elif lines:
            lines[-1] += f" {stmt};"
        else:
            lines.append(stmt + ";")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(qasm_texts())
def test_parse_qasm_matches_reference(text):
    assert outcome(parse_qasm, text) == expected_outcome(text)


@pytest.mark.parametrize("angle", LITERALS)
def test_parse_qasm_literals_match_reference(angle):
    text = f"OPENQASM 2.0;\nqreg q[2];\nh q[1];\nrz({angle}) q[0];\n"
    assert outcome(parse_qasm, text) == expected_outcome(text)


@settings(max_examples=500, deadline=None)
@given(angles)
def test_single_angles_match_reference(angle):
    text = f"qreg q[1];\nrz({angle}) q[0];\n"
    assert outcome(parse_qasm, text) == expected_outcome(text)


# ---------------------------------------------------------------------------
# reference DAG and drain
# ---------------------------------------------------------------------------

def reference_dag(circuit):
    """(succ, in_degree) with a predecessor set and a sort per gate."""
    succ = [[] for _ in circuit.gates]
    in_degree = [0] * len(circuit.gates)
    last_on_qubit = {}
    for g in circuit.gates:
        preds = set()
        for q in g.qubits:
            if q in last_on_qubit:
                preds.add(last_on_qubit[q])
            last_on_qubit[q] = g.id
        for p in sorted(preds):
            succ[p].append(g.id)
            in_degree[g.id] += 1
    return succ, in_degree


def reference_ion_distance(state, qa, qb):
    """Ions strictly between two co-trapped qubits, by walking the slots."""
    na, nb = state.mapping[qa], state.mapping[qb]
    lo, hi = sorted((state.graph.node_pos[na], state.graph.node_pos[nb]))
    slots = state.graph.trap_slots[state.graph.node_trap[na]]
    return sum(1 for p in range(lo + 1, hi) if state.slot_qubit[slots[p]] is not None)


def reference_run_ready_gates(state, dag, events):
    """Full passes over the sorted frontier until a pass runs nothing."""
    mapping, node_trap = state.mapping, state.graph.node_trap
    ran = 0
    progress = True
    while progress:
        progress = False
        for gid in sorted(dag.frontier):
            g = dag.gates[gid]
            if g.is_two_qubit and not state.co_trapped(*g.qubits):
                continue
            slots = tuple(mapping[q] for q in g.qubits)
            trap = node_trap[slots[0]]
            events.append(EventRecord(
                EventKind.GATE, qubits=g.qubits, gate_id=gid, label=g.label, slots=slots,
                traps=(trap,), chain_ions=state.chain_length(trap),
                ion_dist=reference_ion_distance(state, *g.qubits) if g.is_two_qubit else 0))
            dag.pop(gid)
            progress = True
            ran += 1
    return ran


@st.composite
def gate_lists(draw):
    n = draw(st.integers(1, 6))
    gates = []
    for i in range(draw(st.integers(0, 20))):
        if n == 1 or draw(st.booleans()):
            gates.append(Gate(i, "h", (draw(st.integers(0, n - 1)),)))
        else:
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            gates.append(Gate(i, "cx", (a, b)))
    return Circuit(n, tuple(gates))


@given(gate_lists())
def test_dag_matches_reference(c):
    dag = build_dag(c)
    assert (dag.succ, dag.in_degree) == reference_dag(c)
    # pop reports exactly the gates that join the frontier
    while len(dag):
        before = set(dag.frontier)
        gid = min(before)
        promoted = dag.pop(gid)
        assert promoted == sorted(dag.frontier - (before - {gid}))


def with_reference_drain(monkeypatch):
    monkeypatch.setattr(scheduler, "run_ready_gates", reference_run_ready_gates)
    monkeypatch.setattr(oracle, "run_ready_gates", reference_run_ready_gates)


def test_drain_matches_reference_on_random_instances(monkeypatch):
    rng = random.Random(2026)
    draws = [random_instance(rng, max_traps=4, max_capacity=4, max_gates=8) for _ in range(150)]
    small = [random_instance(rng) for _ in range(30)]
    params = SchedulerParams(iteration_cap_per_gate=500)
    new = [schedule(c, g, m, params).events for c, g, m in draws]
    exact = [exact_schedule(c, g, m) for c, g, m in small]
    with monkeypatch.context() as mp:
        with_reference_drain(mp)
        assert [schedule(c, g, m, params).events for c, g, m in draws] == new
        for (c, g, m), ex in zip(small, exact):
            ref = exact_schedule(c, g, m)
            assert getattr(ref, "events", ref) == getattr(ex, "events", ex)


@pytest.mark.parametrize("topo", [linear_topology(3, 6), grid_topology(2, 2, 5),
                                  star_topology(4, 5)], ids=["L", "G", "S"])
@pytest.mark.parametrize("gen,size,kw", [("qft", 12, {}), ("heisenberg", 10,
                                                           {"trotter_steps": 3}),
                                         ("qaoa_chain", 12, {"layers": 3})])
def test_drain_matches_reference_on_compiles(monkeypatch, topo, gen, size, kw):
    circuit = gen_benchmark(gen, size, **kw)
    graph = to_graph(topo)
    for strat in ("gather", "sta"):
        mapping = initial_mapping(circuit, graph, MappingParams(strategy=Strategy(strat)))
        new = schedule(circuit, graph, mapping).events
        with monkeypatch.context() as mp:
            with_reference_drain(mp)
            assert schedule(circuit, graph, mapping).events == new


def test_drain_runs_promoted_gates_in_later_passes():
    """A promoted gate with a lower id than a gate that ran runs after it,
    in the next pass, as with full passes."""
    c = Circuit(4, (Gate(0, "h", (0,)), Gate(1, "h", (2,)), Gate(2, "cx", (0, 1)),
                    Gate(3, "h", (3,)), Gate(4, "cx", (2, 3))))
    graph = to_graph(linear_topology(2, 3))
    mapping = {0: 0, 1: 1, 2: 3, 3: 4}
    events, ref = [], []
    assert run_ready_gates(MachineState(graph, mapping), build_dag(c), events) == 5
    reference_run_ready_gates(MachineState(graph, mapping), build_dag(c), ref)
    assert [e.gate_id for e in events] == [0, 1, 3, 2, 4]
    assert events == ref


@settings(max_examples=200, deadline=None)
@given(gate_lists(), st.integers(0, 2 ** 32 - 1))
def test_drain_matches_reference_between_random_moves(c, seed):
    """Drain, make a random generic swap, drain again: both drains emit the
    same events from the same states."""
    rng = random.Random(seed)
    graph = to_graph(linear_topology(3, 3))
    mapping = dict(zip(range(c.n_qubits), rng.sample(range(graph.n_nodes), c.n_qubits)))
    state, ref_state = MachineState(graph, mapping), MachineState(graph, mapping)
    dag, ref_dag = build_dag(c), build_dag(c)
    events, ref = [], []
    for _ in range(30):
        assert run_ready_gates(state, dag, events) == \
            reference_run_ready_gates(ref_state, ref_dag, ref)
        assert events == ref and dag.frontier == ref_dag.frontier
        if not len(dag):
            break
        edge = graph.edges[rng.choice(scheduler.candidates(state, graph).tolist())]
        assert state.apply_generic_swap(edge) == ref_state.apply_generic_swap(edge)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["L", "G", "S"]), st.integers(2, 7))
def test_ion_distance_equals_slot_walk(seed, family, capacity):
    rng = random.Random(seed)
    topo = {"L": linear_topology(3, capacity), "G": grid_topology(2, 2, capacity),
            "S": star_topology(3, capacity)}[family]
    graph = to_graph(topo)
    n_slots = graph.n_nodes
    slots = rng.sample(range(n_slots), rng.randint(2, n_slots - 1))
    state = MachineState(graph, dict(enumerate(slots)))
    for _ in range(40):
        found = scheduler.candidates(state, graph).tolist()
        state.apply_generic_swap(graph.edges[rng.choice(found)])
        for qa in state.mapping:
            for qb in state.mapping:
                if qa != qb and state.co_trapped(qa, qb):
                    assert state.ion_distance(qa, qb) == reference_ion_distance(state, qa, qb)
