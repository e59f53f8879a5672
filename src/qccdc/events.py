"""Schedule event records shared by the scheduler, cost model, and oracle.

``EventRecord`` is a slotted dataclass, not a frozen one: ``run_ready_gates``
builds one per gate, and a frozen dataclass pays an ``object.__setattr__``
per field, which makes it several times slower to build.  So the type no
longer stops a caller from changing an event after ``replay`` checked it or a
digest was taken; ``tests/test_source_checks.py`` checks instead that no code
of the program assigns or deletes an event's field.  Nothing hashes an event;
events compare field by field, and ``dataclasses.replace`` derives changed
copies.  Events may share their immutable tuple fields: the gate events of
one ``run_ready_gates`` call hold one ``traps`` tuple per trap and one
``slots`` tuple per slot pair, and a gate event's ``qubits`` is its gate's,
which the parser shares among gates with equal operands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class EventKind(enum.Enum):
    GATE = "gate"          # circuit gate execution (1q or 2q)
    SWAP = "swap"          # inserted SWAP gate inside a trap
    SHIFT = "shift"        # space shift (ion repositioning, not a gate)
    SHUTTLE = "shuttle"    # split / move / merge between traps


@dataclass(slots=True)
class EventRecord:
    kind: EventKind
    qubits: tuple[int, ...] = ()          # logical qubits involved
    gate_id: int | None = None            # GATE events only
    label: str = ""
    slots: tuple[int, ...] = ()           # graph nodes touched
    traps: tuple[int, ...] = ()           # trap resources used
    segments: int = 0                     # SHUTTLE: path segments
    junction_ids: tuple[int, ...] = ()    # SHUTTLE: junction resources crossed
    junction_degrees: tuple[int, ...] = ()
    weight: float = 0.0                   # inserted-op edge weight (0 for gates)
    chain_ions: int = 0                   # N of the acting trap at event time
    ion_dist: int = 0                     # ions strictly between the operands
