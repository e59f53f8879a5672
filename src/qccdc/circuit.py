"""Circuit representation, OpenQASM 2.0 subset parser, and the gate dependency DAG."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass


ONE_QUBIT_GATES = {"h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u1"}
TWO_QUBIT_GATES = {"cx", "cz", "cp", "cu1", "rzz", "rxx", "ryy", "ms"}


class QasmError(ValueError):
    """Raised on malformed or unsupported OpenQASM input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(slots=True)
class Gate:
    """A single- or two-qubit gate instance inside a circuit.

    ``param`` is informational only (rotation angle in radians); scheduling
    never inspects it.  Slotted, not frozen: a deep circuit builds tens of
    thousands of gates, and a slotted one builds in a third of the time and
    has no ``__dict__``.  ``tests/test_source_checks.py`` checks that no code
    of the program changes a gate's field after it is built.
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

    ``on_qubit[q]`` lists the ids of the gates on qubit q in circuit order; it
    is the only record of program order, and the DAG's edges join neighbours
    in these lists.  A gate is ready, and in ``frontier``, when it is next on
    every qubit it acts on.  ``pop`` removes an executed frontier gate,
    advances its qubits' cursors and returns the gates that became ready.
    """

    def __init__(self, circuit: Circuit):
        on_qubit: list[list[int]] = [[] for _ in range(circuit.n_qubits)]
        for g in circuit.gates:
            for q in g.qubits:
                on_qubit[q].append(g.id)
        self.on_qubit = on_qubit
        self.gates = circuit.gates
        # cursor[q] indexes the next gate on qubit q in on_qubit[q]
        self.cursor = [0] * circuit.n_qubits
        self.frontier: set[int] = {
            seq[0] for seq in on_qubit
            if seq and all(on_qubit[q][0] == seq[0] for q in self.gates[seq[0]].qubits)}
        self._remaining = len(circuit.gates)

    def __len__(self):
        return self._remaining

    def pop(self, gate_id: int) -> list[int]:
        """Remove an executed frontier gate; returns the gates it made
        ready, in ascending id."""
        try:
            self.frontier.remove(gate_id)
        except KeyError:
            raise ValueError(f"gate {gate_id} is not in the frontier") from None
        self._remaining -= 1
        on_qubit, cursor, gates = self.on_qubit, self.cursor, self.gates
        promoted = []
        for q in gates[gate_id].qubits:
            seq = on_qubit[q]
            i = cursor[q] = cursor[q] + 1
            if i < len(seq):
                # when both qubits of the next gate follow this one, only the
                # second advance finds it next on both
                nxt = seq[i]
                for p in gates[nxt].qubits:
                    if on_qubit[p][cursor[p]] != nxt:
                        break
                else:
                    promoted.append(nxt)
        if len(promoted) == 2:
            promoted.sort()
        self.frontier.update(promoted)
        return promoted


def build_dag(circuit: Circuit) -> DepGraph:
    """Build the dependency DAG from each qubit's gate sequence (linear time)."""
    return DepGraph(circuit)


# ---------------------------------------------------------------------------
# OpenQASM 2.0 subset
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_QARG_RE = re.compile(rf"^({_NAME})\[([0-9]+)\]$")
_QREG_RE = re.compile(rf"qreg\s+({_NAME})\[([0-9]+)\]$")
_GATE_RE = re.compile(rf"({_NAME})\s*(\(([^)]*)\))?\s+(.*)$")
_EXPR_RE = re.compile(r"[0-9eE\.\+\-\*/\(\) pi]*")
# A plain numeric angle: an OpenQASM real or nninteger with an optional sign,
# the form ``to_qasm`` writes with ``repr``.  ``float`` reads each of these to
# the bits ``eval`` gives; every other angle goes through ``eval``.  Two
# integer forms are left out because the two differ there: a signed zero
# (``eval`` makes ``-0`` the integer 0, so +0.0) and integers of over 308
# digits (``eval`` overflows making them floats, or hits the digit limit).
_LITERAL = (r" *(?:[+-]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
            r"|[0-9]+[eE][+-]?[0-9]+|[1-9][0-9]{0,307})|0+) *")
# A gate statement in the form ``to_qasm`` writes, in one match: the name, an
# optional angle (plain numeric in group 2, else in 3) and one or two
# ``reg[index]`` operands.  Where it matches, ``_GATE_RE`` and ``_QARG_RE`` find
# the same; any other statement takes the general path, angles through ``eval``.
_GATE_STMT_RE = re.compile(rf"({_NAME})(?:\s*\((?:({_LITERAL})|([^)]*))\))?"
                           rf"\s+({_NAME})\[([0-9]+)\](?:\s*,\s*({_NAME})\[([0-9]+)\])?")

_PARAM_NAMES = {"pi": math.pi}
# each name maps to itself, so every gate of one name shares one label string
_GATE_NAMES = {name: name for name in ONE_QUBIT_GATES | TWO_QUBIT_GATES | {"swap"}}


def _eval_param(expr: str, line_no: int) -> float:
    """Evaluate a constant angle expression (numbers, pi, + - * / and parens)
    to a finite float."""
    if not _EXPR_RE.fullmatch(expr):
        raise QasmError(f"unsupported parameter expression '{expr}'", line_no)
    if "**" in expr:  # where ``2**2**24`` would build a 16-Mbit integer
        raise QasmError(f"OpenQASM 2.0 has no '**' operator: '{expr}'", line_no)
    try:
        value = float(eval(expr, {"__builtins__": {}}, _PARAM_NAMES))  # noqa: S307
    except Exception as exc:
        raise QasmError(f"bad parameter expression '{expr}': {exc}", line_no) from exc
    return _finite(value, expr, line_no)


def _finite(value: float, expr: str, line_no: int) -> float:
    if not math.isfinite(value):
        raise QasmError(f"parameter expression '{expr}' is not finite", line_no)
    return value


def parse_qasm(text: str, name: str = "qasm") -> Circuit:
    """Parse an OpenQASM 2.0 subset into a Circuit.

    Supported statements: ``OPENQASM 2.0``, a single qreg, creg (ignored),
    the one- and two-qubit gates in ONE_QUBIT_GATES / TWO_QUBIT_GATES,
    ``swap`` (expanded into the standard 3-CNOT sequence so explicit swaps
    count as two-qubit gates), barrier and measure (both dropped).  Gates with
    equal operands share one ``qubits`` tuple.  An angle
    is a constant expression of numbers, ``pi``, ``+ - * /`` and parentheses
    with a finite value.  A statement naming any other gate is rejected
    before its angle and operands are read.
    """
    n_qubits = None
    qreg_name = None
    gates: list[Gate] = []

    def qubit(reg: str, digits: str, line_no: int) -> int:
        idx = int(digits)
        if reg != qreg_name:
            raise QasmError(f"unknown register '{reg}'", line_no)
        if idx >= n_qubits:
            raise QasmError(f"qubit index {idx} out of range (qreg size {n_qubits})", line_no)
        return idx

    def parse_qubit(tok: str, line_no: int) -> int:
        m = _QARG_RE.match(tok.strip())
        if not m:
            raise QasmError(f"bad qubit reference '{tok.strip()}'", line_no)
        return qubit(m.group(1), m.group(2), line_no)

    # one operand tuple per distinct operand list, shared by its gates
    operands: dict[tuple[int, ...], tuple[int, ...]] = {}
    shared = operands.setdefault

    def add(label, qubits, param=None):
        gates.append(Gate(len(gates), label, shared(qubits, qubits), param))

    # statements are ';'-terminated; track line numbers for diagnostics.
    # Each line is split once and only its unterminated tail is carried
    # forward, so a program written on one line parses in linear time.
    line_no = 0
    buffered = ""
    statements: list[tuple[int, str]] = []
    for raw in text.splitlines():
        line_no += 1
        pieces = (buffered + raw.split("//", 1)[0]).split(";")
        buffered = pieces.pop()
        for stmt in pieces:
            stmt = stmt.strip()
            if stmt:
                statements.append((line_no, stmt))
    if buffered.strip():
        raise QasmError("unterminated statement", line_no)

    one_pattern = _GATE_STMT_RE.fullmatch
    for ln, stmt in statements:
        m = one_pattern(stmt)
        if (m is not None and n_qubits is not None
                and (gate_name := _GATE_NAMES.get(m[1].lower())) is not None):
            literal, angle, reg, idx, reg_b, idx_b = m.groups()[1:]
            if literal is not None:
                param = _finite(float(literal), literal, ln)
            else:
                param = None if angle is None else _eval_param(angle, ln)
            args = ((qubit(reg, idx, ln),) if reg_b is None
                    else (qubit(reg, idx, ln), qubit(reg_b, idx_b, ln)))
        else:
            words = stmt.split(None, 1)
            head = words[0].split("(", 1)[0].lower()
            if head == "openqasm":
                version = words[1] if len(words) > 1 else ""
                if version != "2.0":
                    raise QasmError(f"unsupported OpenQASM version '{version}'", ln)
                continue
            if head == "include":
                continue
            if head == "qreg":
                m = _QREG_RE.match(stmt)
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
            m = _GATE_RE.match(stmt)
            if not m:
                raise QasmError(f"cannot parse statement '{stmt}'", ln)
            gate_name = _GATE_NAMES.get(m.group(1).lower())
            if gate_name is None:
                raise QasmError(f"unsupported gate '{m.group(1).lower()}'", ln)
            param = _eval_param(m.group(3), ln) if m.group(3) is not None else None
            args = tuple(parse_qubit(a, ln) for a in m.group(4).split(","))

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
        else:  # swap
            if len(args) != 2 or args[0] == args[1]:
                raise QasmError("swap expects 2 distinct qubits", ln)
            a, b = args
            add("cx", (a, b))
            add("cx", (b, a))
            add("cx", (a, b))

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
