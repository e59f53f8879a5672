"""Circuit representation, OpenQASM 2.0 subset parser, and the gate dependency DAG."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field


ONE_QUBIT_GATES = {"h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u1", "u2", "u3"}
TWO_QUBIT_GATES = {"cx", "cz", "cp", "cu1", "rzz", "rxx", "ryy", "ms"}


class QasmError(ValueError):
    """Raised on malformed or unsupported OpenQASM input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Gate:
    """A single- or two-qubit gate instance inside a circuit.

    ``param`` is informational only (rotation angle in radians); scheduling
    never inspects it.
    """

    id: int
    label: str
    qubits: tuple[int, ...]
    param: float | None = None

    def __post_init__(self):
        if len(self.qubits) not in (1, 2):
            raise ValueError(f"gate {self.label} acts on {len(self.qubits)} qubits")
        if len(self.qubits) == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"two-qubit gate {self.label} with identical operands")

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``n_qubits`` logical qubits."""

    n_qubits: int
    gates: tuple[Gate, ...]
    name: str = "circuit"

    def __post_init__(self):
        for i, g in enumerate(self.gates):
            if g.id != i:
                raise ValueError("gate ids must be dense 0..len-1 in order")
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate {g.id} touches qubit {q} outside range")

    @property
    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if g.is_two_qubit)

    @property
    def one_qubit_count(self) -> int:
        return sum(1 for g in self.gates if not g.is_two_qubit)


class DepGraph:
    """Dependency DAG of a circuit with an executable frontier.

    An edge (g_i, g_j) means g_i is the most recent earlier gate sharing a
    qubit with g_j.  ``pop`` removes an executed frontier gate and promotes
    any successor whose in-degree drops to zero.
    """

    def __init__(self, circuit: Circuit):
        n = len(circuit.gates)
        self.succ: list[list[int]] = [[] for _ in range(n)]
        self.in_degree: list[int] = [0] * n
        self.gates = circuit.gates
        last_on_qubit: dict[int, int] = {}
        for g in circuit.gates:
            preds = set()
            for q in g.qubits:
                if q in last_on_qubit:
                    preds.add(last_on_qubit[q])
                last_on_qubit[q] = g.id
            for p in sorted(preds):
                self.succ[p].append(g.id)
                self.in_degree[g.id] += 1
        self.frontier: set[int] = {g.id for g in circuit.gates if self.in_degree[g.id] == 0}
        self._remaining = n

    def __len__(self):
        return self._remaining

    def pop(self, gate_id: int) -> None:
        if gate_id not in self.frontier:
            raise ValueError(f"gate {gate_id} is not in the frontier")
        self.frontier.remove(gate_id)
        self._remaining -= 1
        for s in self.succ[gate_id]:
            self.in_degree[s] -= 1
            if self.in_degree[s] == 0:
                self.frontier.add(s)


def build_dag(circuit: Circuit) -> DepGraph:
    """Build the dependency DAG by per-qubit last-writer chaining (linear time)."""
    return DepGraph(circuit)


# ---------------------------------------------------------------------------
# OpenQASM 2.0 subset
# ---------------------------------------------------------------------------

_QARG_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]$")

_PARAM_NAMES = {"pi": math.pi}


def _eval_param(expr: str, line_no: int) -> float:
    """Evaluate a constant angle expression (numbers, pi, + - * / and parens)."""
    if not re.fullmatch(r"[0-9eE\.\+\-\*/\(\) pi]*", expr):
        raise QasmError(f"unsupported parameter expression '{expr}'", line_no)
    try:
        return float(eval(expr, {"__builtins__": {}}, _PARAM_NAMES))  # noqa: S307
    except Exception as exc:
        raise QasmError(f"bad parameter expression '{expr}': {exc}", line_no) from exc


def parse_qasm(text: str, name: str = "qasm") -> Circuit:
    """Parse an OpenQASM 2.0 subset into a Circuit.

    Supported statements: a single qreg, creg (ignored), the one- and
    two-qubit gates in ONE_QUBIT_GATES / TWO_QUBIT_GATES, ``swap`` (expanded
    into the standard 3-CNOT sequence so explicit swaps count as two-qubit
    gates), barrier and measure (both dropped).
    """
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

    # statements are ';'-terminated; track line numbers for diagnostics
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
        param = _eval_param(m.group(3), ln) if m.group(3) is not None else None
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


def to_qasm(circuit: Circuit) -> str:
    """Emit the circuit back as OpenQASM 2.0 text (parse round-trip safe)."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.n_qubits}];"]
    for g in circuit.gates:
        args = ",".join(f"q[{q}]" for q in g.qubits)
        if g.param is not None:
            lines.append(f"{g.label}({g.param!r}) {args};")
        else:
            lines.append(f"{g.label} {args};")
    return "\n".join(lines) + "\n"
