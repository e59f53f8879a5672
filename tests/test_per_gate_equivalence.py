"""The per-gate fast paths against the code they replaced.

``reference_parse_qasm`` is the parser that read every angle with ``eval``
and every operand with its own match; ``reference_run_ready_gates`` drains
by full passes over the frontier to a fixpoint and measures ion distance by
walking the slots; ``ReferenceDag`` keeps the frontier with a predecessor
set per gate; ``reference_evaluate`` times and grades events with a lookup of
every cost parameter per event.  The program must give the same circuits,
events, DAGs and metrics.  The parser's only intended differences are the
rejections ``expected_outcome`` adds: ``**`` and non-finite angles, an
OPENQASM version other than 2.0, and gates outside ``GATE_NAMES``.
"""

import dataclasses
import math
import random
import re
import struct
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from qccdc import (Circuit, CostParams, Gate, GateFamily, MappingParams, Metrics, QasmError,
                   SchedulerParams, Strategy, build_dag, evaluate, exact_schedule,
                   gate_duration, gate_fidelity, gen_benchmark, grid_topology, initial_mapping,
                   linear_topology, parse_qasm, random_instance, schedule, shuttle_duration,
                   star_topology, to_graph)
from qccdc import oracle, scheduler
from qccdc.circuit import ONE_QUBIT_GATES, TWO_QUBIT_GATES
from qccdc.costmodel import TimedEvent
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


DIRECTIVES = {"openqasm", "include", "qreg", "creg", "barrier", "measure"}
GATE_NAMES = {"h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u1",
              "cx", "cz", "cp", "cu1", "rzz", "rxx", "ryy", "ms", "swap"}


def reference_statements(text):
    """``reference_parse_qasm``'s statements as (line, statement, offset just
    past its ';'), or None where it finds an unterminated statement."""
    found = []
    line_no = offset = 0
    buffered = ""
    for raw in text.splitlines(keepends=True):
        line_no += 1
        code = raw.splitlines()[0].split("//", 1)[0]
        buffered += code
        while ";" in buffered:
            stmt, buffered = buffered.split(";", 1)
            if stmt.strip():
                found.append((line_no, stmt.strip(), offset + len(code) - len(buffered)))
        offset += len(raw)
    return None if buffered.strip() else found


def later_rejection(stmt, after_qreg):
    """The message of a rule the parser added after the reference, or None:
    an OPENQASM version other than 2.0, and a gate outside GATE_NAMES (u2 and
    u3 left it), rejected before its angle and operands are read."""
    words = stmt.split(None, 1)
    head = words[0].split("(", 1)[0].lower()
    if head == "openqasm":
        version = words[1] if len(words) > 1 else ""
        return None if version == "2.0" else f"unsupported OpenQASM version '{version}'"
    m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*(\(([^)]*)\))?\s+(.*)$", stmt)
    if after_qreg and head not in DIRECTIVES and m and m.group(1).lower() not in GATE_NAMES:
        return f"unsupported gate '{m.group(1).lower()}'"
    return None


def expected_outcome(text):
    """The reference parser's outcome under the parser's later rules: the two
    angle rejections of ``strict_eval_param`` and those of ``later_rejection``.
    A statement a later rule rejects fails there, unless the statements
    before it fail first."""
    def strict(t):
        return reference_parse_qasm(t, eval_param=strict_eval_param)

    statements = reference_statements(text)
    prefix_end = 0
    after_qreg = False
    for line_no, stmt, end in statements or ():
        message = later_rejection(stmt, after_qreg)
        if message is not None:
            before = outcome(strict, text[:prefix_end])
            if before[0] == "raised" and before[3] is not None:  # not "no qreg"
                return before
            return ("raised", "QasmError", f"line {line_no}: {message}", line_no)
        after_qreg = after_qreg or stmt.split(None, 1)[0].split("(", 1)[0].lower() == "qreg"
        prefix_end = end
    return outcome(strict, text)


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


@st.composite
def gate_statement_texts(draw):
    """Gate statements in and around the one-pattern form: spacing, tabs and
    case variants, unknown and removed gates, wrong registers, indices out of
    range, a space before '[' and 0-3 operands.  Each variant is drawn rarely
    enough that many texts parse.  (The reference reads non-ASCII digits;
    ``test_one_pattern_reports_the_first_fault`` covers those.)"""
    def rarely(common, *rare):
        return draw(st.sampled_from([common] * 12 + list(rare)))

    n = draw(st.integers(1, 4))
    gap = st.sampled_from(["", "", " ", "  ", "\t", " \t ", "\u00a0"])
    names = {1: ["h", "H", "x", "rz", "Rz", "u1"], 2: ["cx", "CX", "Cx", "cz", "ms", "rzz",
                                                       "RZZ", "cp", "swap", "SWAP"]}

    def operand():
        index = rarely(str(draw(st.integers(0, n - 1))), str(n), "00", "+1", "1 ")
        return f"{rarely('q', 'r', 'Q', 'q1')}{rarely('', ' ')}[{index}]"

    stmts = [f"OPENQASM {rarely('2.0', '3.0', '2')}"] + [f"qreg q[{n}]"] * rarely(1, 0, 2)
    for _ in range(draw(st.integers(1, 4))):
        arity = draw(st.sampled_from([1, 2]))
        stmt = rarely(draw(st.sampled_from(names[arity])), "u2", "u3", "bogus", "measure",
                      "barrier", "creg")
        if draw(st.booleans()):
            angle = rarely(draw(st.sampled_from(["0.5", " -1 ", "pi/2", "1e-3"])), "1e999",
                           "2**3", "0.1,0.2,0.3", "01", "")
            stmt += f"{draw(gap)}({angle})"
        operands = [operand() for _ in range(rarely(arity, 0, 1, 2, 3))]
        stmt += rarely(" ", "\t", "  ", "\u00a0") + f"{draw(gap)},{draw(gap)}".join(operands)
        stmts.append(stmt)
    if rarely(False, True):
        stmts.insert(1, stmts[-1])  # a gate before the qreg
    ends = st.sampled_from(["\n", " ", "\n"])
    return "".join(f"{stmt};{draw(ends)}" for stmt in stmts)


@settings(max_examples=400, deadline=None)
@given(gate_statement_texts())
def test_one_pattern_gate_statements_match_reference(text):
    """Every error's type, message and line, and every accepted circuit, as
    the reference parser gives them under the later rules."""
    assert outcome(parse_qasm, text) == expected_outcome(text)


@pytest.mark.parametrize("stmt, message", [
    ("cx q[0], q[\u0663]", "bad qubit reference 'q[\u0663]'"),
    ("rz(0.5) q[\uff10]", "bad qubit reference 'q[\uff10]'"),
    ("cx q [0], q[1]", "bad qubit reference 'q [0]'"),
    ("h q [1]", "bad qubit reference 'q [1]'"),
    ("cx r[0], q[9]", "unknown register 'r'"),
    ("cx q[9], r[0]", "qubit index 9 out of range (qreg size 4)"),
    ("cx q[1], Q[9]", "unknown register 'Q'"),
    ("rzz(1e999) r[0], q[9]", "parameter expression '1e999' is not finite"),
    ("cx q[2] ,\tq[2]", "cx with identical qubits"),
])
def test_one_pattern_reports_the_first_fault(stmt, message):
    """The angle, then each operand in order; OpenQASM 2.0 integers are
    ASCII, and no space goes before '['."""
    text = f"OPENQASM 2.0;\nqreg q[4];\n{stmt};\n"
    assert outcome(parse_qasm, text) == ("raised", "QasmError", f"line 3: {message}", 3)
    if stmt.isascii():
        assert outcome(parse_qasm, text) == expected_outcome(text)


@pytest.mark.parametrize("stmt", ["u3(0.1,0.2,0.3) q[0]", "u3(0.1) q[0]", "u2(0.1,0.2) q[0]",
                                  "u2(0.1) q[0]", "U3 q[9]"])
def test_removed_gates_are_unsupported_in_every_form(stmt):
    text = f"OPENQASM 2.0;\nqreg q[1];\n{stmt};\n"
    name = stmt[:2].lower()
    expected = ("raised", "QasmError", f"line 3: unsupported gate '{name}'", 3)
    assert outcome(parse_qasm, text) == expected_outcome(text) == expected


# ---------------------------------------------------------------------------
# reference DAG and drain
# ---------------------------------------------------------------------------

class ReferenceDag:
    """A frontier kept from a predecessor set per gate, the last earlier gate
    on each of its qubits: a gate joins it once every predecessor has run."""

    def __init__(self, circuit):
        self.preds, last = [], {}
        for g in circuit.gates:
            self.preds.append({last[q] for q in g.qubits if q in last})
            last.update((q, g.id) for q in g.qubits)
        self.done = set()
        self.frontier = {gid for gid, p in enumerate(self.preds) if not p}

    def pop(self, gid):
        assert gid in self.frontier
        self.frontier.remove(gid)
        self.done.add(gid)
        promoted = sorted(s for s, p in enumerate(self.preds)
                          if s not in self.done | self.frontier and p <= self.done)
        self.frontier.update(promoted)
        return promoted


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


@given(gate_lists(), st.randoms(use_true_random=False))
def test_dag_matches_reference(c, rng):
    """The same pops, in a random order the frontier allows, give the same
    promoted gates and frontiers."""
    dag, ref = build_dag(c), ReferenceDag(c)
    assert dag.on_qubit == [[g.id for g in c.gates if q in g.qubits] for q in range(c.n_qubits)]
    assert dag.frontier == ref.frontier
    while len(dag):
        gid = rng.choice(sorted(dag.frontier))
        assert dag.pop(gid) == ref.pop(gid)
        assert dag.frontier == ref.frontier
    assert not ref.frontier and len(ref.done) == len(c.gates)


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
    assert run_ready_gates(MachineState(graph, mapping, 4), build_dag(c), events) == 5
    reference_run_ready_gates(MachineState(graph, mapping, 4), build_dag(c), ref)
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
    state, ref_state = (MachineState(graph, mapping, c.n_qubits),
                        MachineState(graph, mapping, c.n_qubits))
    dag, ref_dag = build_dag(c), build_dag(c)
    events, ref = [], []
    for _ in range(30):
        assert run_ready_gates(state, dag, events) == \
            reference_run_ready_gates(ref_state, ref_dag, ref)
        assert events == ref and dag.frontier == ref_dag.frontier
        if not len(dag):
            break
        edge = rng.choice(scheduler.candidates(state, graph).tolist())
        u, v = int(graph.edge_u[edge]), int(graph.edge_v[edge])
        assert state.apply_generic_swap(u, v) == ref_state.apply_generic_swap(u, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["L", "G", "S"]), st.integers(2, 7))
def test_ion_distance_equals_slot_walk(seed, family, capacity):
    rng = random.Random(seed)
    topo = {"L": linear_topology(3, capacity), "G": grid_topology(2, 2, capacity),
            "S": star_topology(3, capacity)}[family]
    graph = to_graph(topo)
    n_slots = graph.n_nodes
    slots = rng.sample(range(n_slots), rng.randint(2, n_slots - 1))
    state = MachineState(graph, dict(enumerate(slots)), len(slots))
    for _ in range(40):
        found = scheduler.candidates(state, graph).tolist()
        edge = rng.choice(found)
        state.apply_generic_swap(int(graph.edge_u[edge]), int(graph.edge_v[edge]))
        for qa in state.mapping:
            for qb in state.mapping:
                if qa != qb and state.co_trapped(qa, qb):
                    assert state.ion_distance(qa, qb) == reference_ion_distance(state, qa, qb)


# ---------------------------------------------------------------------------
# the event record's contract
# ---------------------------------------------------------------------------

def test_event_record_contract():
    """Field names, order and defaults, field-wise equality, ``replace`` and
    ``repr`` are those of the frozen record it replaced: ``replay`` compares
    events with ``!=``, and ``benchmarks/checker.digest`` reads attributes."""
    fields = [(f.name, f.default) for f in dataclasses.fields(EventRecord)]
    assert fields == [("kind", dataclasses.MISSING), ("qubits", ()), ("gate_id", None),
                      ("label", ""), ("slots", ()), ("traps", ()), ("segments", 0),
                      ("junction_ids", ()), ("junction_degrees", ()), ("weight", 0.0),
                      ("chain_ions", 0), ("ion_dist", 0)]
    ev = EventRecord(EventKind.GATE, qubits=(0, 1), gate_id=3, label="cx", slots=(4, 6),
                     traps=(1,), chain_ions=5, ion_dist=1)
    same = EventRecord(EventKind.GATE, (0, 1), 3, "cx", (4, 6), (1,), 0, (), (), 0.0, 5, 1)
    assert ev == same and not ev != same
    for name, _ in fields:
        changed = dataclasses.replace(ev, **{name: EventKind.SWAP if name == "kind" else -1})
        assert changed != ev and getattr(changed, name) != getattr(ev, name)
        assert all(getattr(changed, other) == getattr(ev, other)
                   for other, _ in fields if other != name)
    assert repr(ev) == (
        "EventRecord(kind=<EventKind.GATE: 'gate'>, qubits=(0, 1), gate_id=3, label='cx', "
        "slots=(4, 6), traps=(1,), segments=0, junction_ids=(), junction_degrees=(), "
        "weight=0.0, chain_ions=5, ion_dist=1)")


# ---------------------------------------------------------------------------
# reference evaluate: every parameter looked up per event
# ---------------------------------------------------------------------------

def reference_evaluate(sched, params=None, *, relax_swap=False, relax_shuttle=False):
    params = params or CostParams()
    ready = {}
    nbar = {t.id: 0.0 for t in sched.graph.topology.traps}
    success = 1.0
    makespan = 0.0
    timeline = []

    for ev in sched.events:
        fidelity = None
        if ev.kind is EventKind.GATE:
            if len(ev.qubits) == 2:
                dur = gate_duration(params.gate_family, ev.chain_ions, ev.ion_dist)
                fidelity = gate_fidelity(dur, ev.chain_ions, nbar[ev.traps[0]], params)
            else:
                dur = params.single_qubit_duration
                fidelity = params.single_qubit_fidelity
        elif ev.kind is EventKind.SWAP:
            if relax_swap:
                dur = 0.0
            else:
                one = gate_duration(params.gate_family, ev.chain_ions, ev.ion_dist)
                dur = params.swap_gate_multiplier * one
                fidelity = gate_fidelity(one, ev.chain_ions, nbar[ev.traps[0]],
                                         params) ** params.swap_gate_multiplier
        elif ev.kind is EventKind.SHIFT:
            dur = 0.0 if relax_swap else params.space_shift_us
        elif ev.kind is EventKind.SHUTTLE:
            if relax_shuttle:
                dur = 0.0
            else:
                dur = shuttle_duration(ev.segments, ev.junction_degrees, params)
                nbar[ev.traps[1]] += params.k1 + params.k2 * ev.segments
        else:
            raise ValueError(f"unknown event kind {ev.kind}")

        resources = list(ev.traps) + [("junction", j) for j in ev.junction_ids]
        start = max((ready.get(r, 0.0) for r in resources), default=0.0)
        end = start + dur
        for r in resources:
            ready[r] = end
        makespan = max(makespan, end)
        if fidelity is not None:
            success *= fidelity
        timeline.append(TimedEvent(ev, start, dur, fidelity))

    return Metrics(makespan_us=makespan, success_rate=success, timeline=timeline,
                   nbar=nbar, **sched.metrics)


def evaluate_outcome(fn, sched, params, **relax):
    """Metrics, or the error, with every warning raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            m = fn(sched, params, **relax)
            result = (m.makespan_us, m.success_rate, m.nbar, m.timeline, m.to_dict())
        except ValueError as exc:
            result = ("raised", type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


COST_VARIANTS = [
    {},
    {"gamma": 1234.5, "k1": 0.317, "k2": 0.0713, "a0": 2.9e-4, "single_qubit_fidelity": 0.9995,
     "single_qubit_duration": 7.3, "move_us": 3.1, "junction_per_path_us": 11.7},
    {"gamma": 0.0, "k1": 0.0, "k2": 0.0, "a0": 0.0, "space_shift_us": 0.0},
]


def evaluate_cases():
    """Schedules with gates, SWAPs, shifts and shuttles, junction-free and
    through junctions."""
    rng = random.Random(314)
    params = SchedulerParams(iteration_cap_per_gate=500)
    for _ in range(30):
        c, g, m = random_instance(rng, max_traps=4, max_capacity=5, max_gates=8)
        yield schedule(c, g, m, params)
    for topo in (linear_topology(3, 6), grid_topology(2, 2, 5), star_topology(4, 5)):
        graph = to_graph(topo)
        for gen, size, kw in (("qft", 10, {}), ("heisenberg", 9, {"trotter_steps": 2})):
            circuit = gen_benchmark(gen, size, **kw)
            yield schedule(circuit, graph, initial_mapping(circuit, graph, MappingParams()))
    yield junction_contention()


def junction_contention():
    """Two shuttles between disjoint trap pairs through the one junction of
    a star: the junction alone orders them."""
    graph = to_graph(star_topology(4, 3))

    def shuttle(u, v):
        traps = (graph.node_trap[u], graph.node_trap[v])
        path = graph.trap_path[traps]
        return EventRecord(EventKind.SHUTTLE, qubits=(0,), slots=(u, v), traps=traps,
                           segments=path.segments, junction_ids=path.junctions,
                           junction_degrees=(4,) * len(path.junctions),
                           weight=float(graph.edge_weight[graph.edge_id(u, v)]), chain_ions=1)

    gate = EventRecord(EventKind.GATE, qubits=(0, 1), gate_id=0, label="cx", slots=(3, 4),
                       traps=(1,), chain_ions=2)
    events = [shuttle(2, 3), shuttle(8, 9), gate, dataclasses.replace(gate, traps=(3,))]
    return scheduler.Schedule(events, Circuit(2, ()), graph, {0: 2, 1: 4})


def test_evaluate_is_bit_identical_to_reference():
    cases = list(evaluate_cases())
    kinds = {ev.kind for s in cases for ev in s.events}
    assert kinds == set(EventKind)
    assert any(ev.junction_ids for s in cases for ev in s.events)
    contention = reference_evaluate(cases[-1]).timeline
    assert contention[1].start_us == contention[0].start_us + contention[0].duration_us > 0
    am1_warned = 0
    for sched in cases:
        for family in GateFamily:
            for variant in COST_VARIANTS:
                for multiplier in range(4):
                    params = CostParams(gate_family=family, swap_gate_multiplier=multiplier,
                                        **variant)
                    for relax_swap in (False, True):
                        for relax_shuttle in (False, True):
                            relax = {"relax_swap": relax_swap, "relax_shuttle": relax_shuttle}
                            got = evaluate_outcome(evaluate, sched, params, **relax)
                            assert got == evaluate_outcome(reference_evaluate, sched, params,
                                                           **relax)
                            am1_warned += bool(got[1])
    assert am1_warned  # AM1 at d=0 warns once per such event, as before


@pytest.mark.parametrize("field, value", [("chain_ions", 1), ("chain_ions", 0),
                                          ("ion_dist", -1)])
@pytest.mark.parametrize("family", list(GateFamily))
def test_evaluate_raises_as_reference_on_malformed_gate_events(field, value, family):
    sched = next(evaluate_cases())
    i = next(i for i, ev in enumerate(sched.events)
             if ev.kind is EventKind.GATE and len(ev.qubits) == 2)
    events = list(sched.events)
    events[i] = dataclasses.replace(events[i], **{field: value})
    bad = dataclasses.replace(sched, events=events)
    params = CostParams(gate_family=family)
    got = evaluate_outcome(evaluate, bad, params)
    assert got[0][0] == "raised"
    assert got == evaluate_outcome(reference_evaluate, bad, params)
