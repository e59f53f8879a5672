"""Deterministic benchmark circuit generators.

Counting conventions (fixed so two-qubit totals are reproducible):
  * each controlled-phase in the QFT is emitted as 2 native two-qubit gates
    plus a rotation, so qft(n) has exactly n*(n-1) two-qubit gates;
  * the Bernstein-Vazirani secret defaults to all-ones, giving bv(n) exactly
    n CX gates on n+1 qubits;
  * Toffolis in the ripple-carry adder use the standard 6-CNOT decomposition.
"""

from __future__ import annotations

import inspect
import math

from .circuit import Circuit, Gate

BENCHMARKS = ("qft", "bv", "qaoa_chain", "alt", "cuccaro_adder", "heisenberg")


class _Builder:
    def __init__(self, n_qubits, name):
        self.n_qubits = n_qubits
        self.name = name
        self.gates: list[Gate] = []

    def g1(self, label, q, param=None):
        self.gates.append(Gate(len(self.gates), label, (q,), param))

    def g2(self, label, a, b, param=None):
        self.gates.append(Gate(len(self.gates), label, (a, b), param))

    def build(self) -> Circuit:
        return Circuit(self.n_qubits, tuple(self.gates), name=self.name)


def qft(n: int) -> Circuit:
    """Quantum Fourier transform on n qubits; n*(n-1) two-qubit gates."""
    if n < 2:
        raise ValueError("qft needs n >= 2")
    b = _Builder(n, f"qft_{n}")
    for i in range(n):
        b.g1("h", i)
        for j in range(i + 1, n):
            theta = math.pi / 2 ** (j - i)
            # controlled-phase as CX / Rz / CX
            b.g2("cx", j, i)
            b.g1("rz", i, -theta / 2)
            b.g2("cx", j, i)
    return b.build()


def bv(n: int, secret: int | None = None) -> Circuit:
    """Bernstein-Vazirani oracle circuit on n+1 qubits (target is qubit n)."""
    if n < 2:
        raise ValueError("bv needs n >= 2")
    if secret is None:
        secret = (1 << n) - 1
    b = _Builder(n + 1, f"bv_{n}")
    b.g1("x", n)
    for q in range(n + 1):
        b.g1("h", q)
    for q in range(n):
        if secret >> q & 1:
            b.g2("cx", q, n)
    for q in range(n):
        b.g1("h", q)
    return b.build()


def qaoa_chain(n: int, layers: int = 20) -> Circuit:
    """QAOA over a linear chain: one ZZ coupler per edge per layer, Rx mixers."""
    if n < 2:
        raise ValueError("qaoa_chain needs n >= 2")
    b = _Builder(n, f"qaoa_{n}")
    for q in range(n):
        b.g1("h", q)
    for layer in range(layers):
        gamma = 0.1 * (layer + 1)
        for i in range(n - 1):
            b.g2("rzz", i, i + 1, gamma)
        for q in range(n):
            b.g1("rx", q, 0.2 * (layer + 1))
    return b.build()


def alt(n: int, layers: int = 20) -> Circuit:
    """Alternating layered ansatz: brick pattern of nearest-neighbor blocks."""
    if n < 2:
        raise ValueError("alt needs n >= 2")
    b = _Builder(n, f"alt_{n}")
    for layer in range(layers):
        for q in range(n):
            b.g1("ry", q, 0.1 * (layer + 1))
        for i in range(0, n - 1, 2):
            b.g2("cz", i, i + 1)
        for i in range(1, n - 1, 2):
            b.g2("cz", i, i + 1)
    return b.build()


def _toffoli(b: _Builder, c1, c2, t):
    # standard 6-CNOT decomposition
    b.g1("h", t)
    b.g2("cx", c2, t)
    b.g1("tdg", t)
    b.g2("cx", c1, t)
    b.g1("t", t)
    b.g2("cx", c2, t)
    b.g1("tdg", t)
    b.g2("cx", c1, t)
    b.g1("t", c2)
    b.g1("t", t)
    b.g1("h", t)
    b.g2("cx", c1, c2)
    b.g1("t", c1)
    b.g1("tdg", c2)
    b.g2("cx", c1, c2)


def cuccaro_adder(bits: int) -> Circuit:
    """Ripple-carry adder on 2*bits+2 qubits (ancilla, a/b registers, carry out)."""
    if bits < 1:
        raise ValueError("cuccaro_adder needs bits >= 1")
    n = 2 * bits + 2
    b = _Builder(n, f"adder_{bits}")
    anc = 0
    a = [1 + i for i in range(bits)]
    bb = [1 + bits + i for i in range(bits)]
    carry = n - 1

    def maj(c, y, x):
        b.g2("cx", x, y)
        b.g2("cx", x, c)
        _toffoli(b, c, y, x)

    def uma(c, y, x):
        _toffoli(b, c, y, x)
        b.g2("cx", x, c)
        b.g2("cx", c, y)

    maj(anc, bb[0], a[0])
    for i in range(1, bits):
        maj(a[i - 1], bb[i], a[i])
    b.g2("cx", a[bits - 1], carry)
    for i in range(bits - 1, 0, -1):
        uma(a[i - 1], bb[i], a[i])
    uma(anc, bb[0], a[0])
    return b.build()


def heisenberg(n: int, trotter_steps: int = 1) -> Circuit:
    """First-order Trotterized Heisenberg chain: XX, YY, ZZ per edge per step."""
    if n < 2:
        raise ValueError("heisenberg needs n >= 2")
    b = _Builder(n, f"heisenberg_{n}")
    dt = 0.1
    for _ in range(trotter_steps):
        for i in range(n - 1):
            b.g2("rxx", i, i + 1, dt)
            b.g2("ryy", i, i + 1, dt)
            b.g2("rzz", i, i + 1, dt)
    return b.build()


_GENERATORS = {
    "qft": qft,
    "bv": bv,
    "qaoa_chain": qaoa_chain,
    "alt": alt,
    "cuccaro_adder": cuccaro_adder,
    "heisenberg": heisenberg,
}


def gen_benchmark(name: str, size: int, **params) -> Circuit:
    """Generate a named benchmark; ``size`` is the first generator argument,
    ``params`` name its others."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown benchmark '{name}' (choose from {BENCHMARKS})")
    accepted = list(inspect.signature(_GENERATORS[name]).parameters)[1:]
    for key in params:
        if key not in accepted:
            raise ValueError(f"benchmark '{name}' has no parameter '{key}' "
                             f"(accepted: {', '.join(accepted) or 'none'})")
    return _GENERATORS[name](size, **params)
