import math

import pytest
from hypothesis import given, strategies as st

from qccdc import Circuit, Gate, QasmError, build_dag, parse_qasm, to_qasm


SAMPLE = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q[0];
cx q[0], q[1];
rz(pi/4) q[2];
cp(pi/2) q[1], q[3];
barrier q;
measure q[0] -> c[0];
"""


def test_parse_basic():
    c = parse_qasm(SAMPLE)
    assert c.n_qubits == 4
    assert [g.label for g in c.gates] == ["h", "cx", "rz", "cp"]
    assert c.gates[1].qubits == (0, 1)
    assert c.gates[2].param == pytest.approx(3.141592653589793 / 4)


def test_swap_expands_to_three_cx():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nswap q[0], q[1];\n")
    assert [g.label for g in c.gates] == ["cx", "cx", "cx"]
    assert [g.qubits for g in c.gates] == [(0, 1), (1, 0), (0, 1)]


def test_errors_carry_line_numbers():
    with pytest.raises(QasmError) as exc:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nbogus q[0];\n")
    assert exc.value.line == 3
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[5];\n")
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\n")


@pytest.mark.parametrize("text,line", [
    ("OPENQASM 2.0; qreg q[2];\nh q[0]; cx q[0], q[1]; bogus q[0];\n", 2),
    ("OPENQASM 2.0; qreg q[2]; h q[0];\nh q[1]; // bogus q[0];\nbogus q[1];\n", 3),
    ("OPENQASM 2.0;\nqreg q[2];\ncx q[0],\n  q[7];\n", 4),     # spans lines 3-4
    ("qreg q[2]; cx q[0],\nq[1]; h q[5]; h q[0];\n", 2),
    ("qreg q[2];\nh q[0]; h\nq[1]\n", 3),                   # unterminated
])
def test_line_numbers_with_several_statements_per_line(text, line):
    """A statement's line is the one holding its ';'."""
    with pytest.raises(QasmError) as exc:
        parse_qasm(text)
    assert exc.value.line == line


def test_statements_share_and_span_lines():
    c = parse_qasm("qreg q[2]; h q[0]; cx q[0],\nq[1]; rz(0.5) q[1]; // cx q[1], q[0];\n")
    assert [(g.label, g.qubits) for g in c.gates] == [("h", (0,)), ("cx", (0, 1)),
                                                      ("rz", (1,))]


@pytest.mark.parametrize("text", [
    "qreg q[٣];\ncx q[٠], q[٢];\n",      # Arabic-Indic digits
    "qreg q[3];\ncx q[٠], q[2];\n",
    "qreg q[３];\nh q[0];\n",                         # fullwidth digit
])
def test_non_ascii_digits_rejected(text):
    """OpenQASM 2.0 integers are ASCII; ``int()`` would read other digits."""
    with pytest.raises(QasmError):
        parse_qasm(text)


def test_roundtrip():
    c = parse_qasm(SAMPLE)
    again = parse_qasm(to_qasm(c))
    assert [(g.label, g.qubits, g.param) for g in again.gates] == \
           [(g.label, g.qubits, g.param) for g in c.gates]


def test_dag_frontier_and_pop():
    gates = (Gate(0, "h", (0,)), Gate(1, "cx", (0, 1)), Gate(2, "cx", (2, 3)),
             Gate(3, "cx", (1, 2)))
    c = Circuit(4, gates)
    dag = build_dag(c)
    assert dag.frontier == {0, 2}
    dag.pop(0)
    assert dag.frontier == {1, 2}
    dag.pop(2)
    dag.pop(1)
    assert dag.frontier == {3}
    dag.pop(3)
    assert len(dag) == 0


@pytest.mark.parametrize("second", [(0, 1), (1, 0)])
def test_dag_promotes_a_gate_both_qubits_lead_to_once(second):
    c = Circuit(2, (Gate(0, "cx", (0, 1)), Gate(1, "cx", second)))
    dag = build_dag(c)
    assert dag.on_qubit == [[0, 1], [0, 1]] and dag.frontier == {0}
    assert dag.pop(0) == [1]
    assert dag.frontier == {1}
    assert dag.pop(1) == [] and len(dag) == 0


def test_dag_pop_promotes_in_ascending_id_and_once():
    """Popping gate 0 reaches gate 2 on its first qubit before gate 1 on its
    second, and returns them sorted; gate 4 follows gate 3 on both qubits and
    comes back once.  A gate that is not ready, already ran or does not exist
    is not in the frontier."""
    c = Circuit(4, (Gate(0, "cx", (0, 1)), Gate(1, "h", (1,)), Gate(2, "h", (0,)),
                    Gate(3, "cx", (2, 3)), Gate(4, "cx", (3, 2))))
    dag = build_dag(c)
    assert dag.pop(0) == [1, 2]
    assert dag.pop(3) == [4]
    assert dag.frontier == {1, 2, 4}
    for gid in (0, 3, 5):
        with pytest.raises(ValueError, match=f"gate {gid} is not in the frontier"):
            dag.pop(gid)
    assert dag.frontier == {1, 2, 4} and len(dag) == 3


def test_dag_pop_requires_frontier_membership():
    c = Circuit(2, (Gate(0, "cx", (0, 1)), Gate(1, "cx", (0, 1))))
    dag = build_dag(c)
    with pytest.raises(ValueError):
        dag.pop(1)


@st.composite
def random_circuits(draw):
    n = draw(st.integers(2, 6))
    n_gates = draw(st.integers(0, 12))
    gates = []
    for i in range(n_gates):
        if draw(st.booleans()):
            q = draw(st.integers(0, n - 1))
            gates.append(Gate(i, "h", (q,)))
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1).filter(lambda x, a=a: x != a))
            gates.append(Gate(i, "cx", (a, b)))
    return Circuit(n, tuple(gates))


@given(random_circuits())
def test_dag_respects_per_qubit_order(c):
    """Any full pop order from the frontier is a topological order: per-qubit
    gate sequences come out in circuit order."""
    dag = build_dag(c)
    seen_per_qubit = {q: [] for q in range(c.n_qubits)}
    while len(dag):
        gid = min(dag.frontier)
        for q in c.gates[gid].qubits:
            seen_per_qubit[q].append(gid)
        dag.pop(gid)
    for q, ids in seen_per_qubit.items():
        expected = [g.id for g in c.gates if q in g.qubits]
        assert ids == expected


@given(random_circuits())
def test_qasm_roundtrip_property(c):
    again = parse_qasm(to_qasm(c))
    assert [(g.label, g.qubits) for g in again.gates] == \
           [(g.label, g.qubits) for g in c.gates]


@pytest.mark.parametrize("angle", ["1e999", "-1e999", "1e308*10", "1e999-1e999"])
def test_non_finite_angle_rejected(angle):
    with pytest.raises(QasmError, match="not finite") as exc:
        parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("angle", ["2**3", "2**2**24", "9**9**9"])
def test_power_operator_rejected_before_evaluation(angle):
    """``**`` is no OpenQASM 2.0 operator; rejecting it before ``eval`` keeps
    ``9**9**9`` from building a gigabit integer."""
    with pytest.raises(QasmError, match=r"\*\*") as exc:
        parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nh q[0];\nrz({angle}) q[0];\n")
    assert exc.value.line == 4


def test_plain_literals_read_as_python_literals():
    c = parse_qasm("qreg q[1];\nrz(-0.0) q[0];\nrz(.5) q[0];\nrz( 1e5 ) q[0];\nrz(-0) q[0];\n")
    assert [math.copysign(1.0, g.param) for g in c.gates] == [-1.0, 1.0, 1.0, 1.0]
    assert [g.param for g in c.gates] == [0.0, 0.5, 1e5, 0.0]
    for bad in ("01", "1_0"):
        with pytest.raises(QasmError):
            parse_qasm(f"qreg q[1];\nrz({bad}) q[0];\n")


@pytest.mark.parametrize("header, version", [("OPENQASM 3.0", "3.0"), ("OPENQASM 3", "3"),
                                             ("OPENQASM 2", "2"), ("OPENQASM 2.0.1", "2.0.1"),
                                             ("OPENQASM", ""), ("openqasm 2.0 3.0", "2.0 3.0")])
def test_openqasm_version_other_than_2_0_rejected(header, version):
    with pytest.raises(QasmError) as exc:
        parse_qasm(f"// header\n{header};\nqreg q[1];\nh q[0];\n")
    assert str(exc.value) == f"line 2: unsupported OpenQASM version '{version}'"
    assert exc.value.line == 2


@pytest.mark.parametrize("header", ["OPENQASM 2.0", "openqasm\t2.0", "OpenQASM  2.0 "])
def test_openqasm_2_0_accepted(header):
    assert parse_qasm(f"{header};\nqreg q[1];\nh q[0];\n").n_qubits == 1


def test_gates_with_equal_operands_share_one_tuple():
    """One operand tuple per distinct operand list, swap's three CNOTs
    included."""
    c = parse_qasm("qreg q[3];\ncx q[0], q[1];\nh q[0];\nrz(0.5) q[0];\ncx q[0],q[1];\n"
                   "swap q[1], q[0];\ncz q[1], q[0];\nh q[2];\n")
    by_value = {}
    for g in c.gates:
        by_value.setdefault(g.qubits, set()).add(id(g.qubits))
    assert sorted(by_value) == [(0,), (0, 1), (1, 0), (2,)]
    assert all(len(ids) == 1 for ids in by_value.values())
    assert [g.qubits for g in c.gates] == [(0, 1), (0,), (0,), (0, 1), (1, 0), (0, 1),
                                           (1, 0), (1, 0), (2,)]
