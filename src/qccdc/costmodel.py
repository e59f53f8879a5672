"""Timing and fidelity model: event durations, heat, makespan, success rate.

Durations come from the modulation-family formulas (FM scales with chain
length, PM/AM with ion separation) and from the shuttle primitive times
(split, per-segment move, junction crossing proportional to channel count,
merge).  Two-qubit fidelity is 1 - Gamma*tau - A*(2*nbar + 1) with
A = a0 * N / ln(N); Gamma is quanta per second and tau is converted from
microseconds inside the formula.

``evaluate`` assigns start times by resource-availability list scheduling:
an event starts once every trap and junction it uses is free, preserving
the event-list order per resource.  It is the one heat model: only a
shuttle heats, adding k1 + k2 * segments quanta to its destination trap as
it completes (none if relaxed); ``Metrics.nbar`` is each trap's at the end.
It reads the cost parameters once per call, not per event, and grades every
gate and SWAP with ``gate_duration`` and ``gate_fidelity``, so malformed
events raise the helpers' errors and AM1 gates at d = 0 warn once per event.
A grade depends only on the chain length, the ion distance and the trap's
nbar, so each distinct triple is graded once per call and its events share
the duration and fidelity floats (an AM1 gate at d = 0 is graded per event,
so that it warns).  It stores each event's start, duration and fidelity in
flat sequences indexed like ``sched.events``, the starts in an
``array('d')``; ``Metrics.timeline`` builds ``TimedEvent``s on read.
"""

from __future__ import annotations

import enum
import math
import operator
import warnings
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

from .events import EventKind, EventRecord
from .scheduler import Schedule


class GateFamily(enum.Enum):
    FM = "FM"
    PM = "PM"
    AM1 = "AM1"
    AM2 = "AM2"


@dataclass(frozen=True)
class CostParams:
    gate_family: GateFamily = GateFamily.FM
    gamma: float = 1.0               # background heating, quanta / second
    k1: float = 0.1                  # split+merge quanta
    k2: float = 0.01                 # quanta per shuttled segment
    a0: float = 1e-4                 # scale of the A = a0 * N/ln(N) factor
    single_qubit_fidelity: float = 0.999999
    single_qubit_duration: float = 10.0   # us
    move_us: float = 5.0
    split_us: float = 80.0
    merge_us: float = 80.0
    junction_base_us: float = 40.0
    junction_per_path_us: float = 20.0
    space_shift_us: float = 5.0
    swap_gate_multiplier: int = 1

    def __post_init__(self):
        if not 0 < self.single_qubit_fidelity <= 1:
            raise ValueError("single_qubit_fidelity must be in (0, 1]")
        # a negative heating rate or error scale would lift the success
        # probability above the noise-free one; a negative duration would
        # start later events before time 0; NaN fails the test too
        for name in ("gamma", "k1", "k2", "a0", "single_qubit_duration", "move_us",
                     "split_us", "merge_us", "junction_base_us", "junction_per_path_us",
                     "space_shift_us", "swap_gate_multiplier"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")


def gate_duration(family: GateFamily, n_ions: int, d: int) -> float:
    """Two-qubit gate time in us for a chain of n_ions with d ions between
    the operands."""
    if d < 0:
        raise ValueError("ion separation must be >= 0")
    if family is GateFamily.FM:
        if n_ions < 2:
            raise ValueError("FM gate needs a chain of at least 2 ions")
        return max(13.33 * n_ions - 54.0, 100.0)
    if family is GateFamily.PM:
        return 5.0 * d + 160.0
    if family is GateFamily.AM1:
        if d == 0:
            # formula domain starts at d = 1; fall back to that value
            warnings.warn("AM1 duration undefined at d=0; using the d=1 value 78us",
                          stacklevel=2)
            return 78.0
        return 100.0 * d - 22.0
    if family is GateFamily.AM2:
        return 38.0 * d + 10.0
    raise ValueError(f"unknown gate family {family}")


def shuttle_duration(segments: int, junction_degrees, params: CostParams) -> float:
    """Split + per-segment moves + junction crossings + merge, in us."""
    if segments < 1:
        raise ValueError("a shuttle crosses at least one segment")
    t = params.split_us + segments * params.move_us + params.merge_us
    for deg in junction_degrees:
        t += params.junction_base_us + params.junction_per_path_us * deg
    return t


def gate_fidelity(tau_us: float, n_ions: int, nbar: float, params: CostParams) -> float:
    """Two-qubit gate fidelity under heating; clamped to [0, 1]."""
    if n_ions < 2:
        raise ValueError("fidelity model needs a chain of at least 2 ions")
    if tau_us < 0:
        raise ValueError("tau must be >= 0")
    a = params.a0 * n_ions / math.log(n_ions)
    f = 1.0 - params.gamma * tau_us * 1e-6 - a * (2.0 * nbar + 1.0)
    return min(1.0, max(0.0, f))


@dataclass(slots=True)
class TimedEvent:
    event: EventRecord
    start_us: float
    duration_us: float
    fidelity: float | None  # None for events with no direct fidelity factor


class Timeline(Sequence):
    """Read-only timed events over a schedule's events and three sequences
    indexed like them; reading builds the ``TimedEvent``s, and it equals
    their list."""

    __slots__ = ("_columns",)

    def __init__(self, events, starts, durations, fidelities):
        self._columns = (events, starts, durations, fidelities)

    def __len__(self):
        return len(self._columns[0])

    def __getitem__(self, i):
        i = operator.index(i)  # ints only: no caller slices a timeline
        return TimedEvent(*(c[i] for c in self._columns))

    def __iter__(self):
        return map(TimedEvent, *self._columns)

    def __eq__(self, other):
        if isinstance(other, (Timeline, list)):
            return list(self) == list(other)
        return NotImplemented


@dataclass
class Metrics:
    """The grade of one schedule.  ``timeline`` is a ``Timeline`` from
    ``evaluate``, built on read from stored sequences, or a list of
    ``TimedEvent``s."""

    makespan_us: float
    success_rate: float
    shuttles: int
    swap_gates: int
    space_shifts: int
    two_qubit_gates: int
    one_qubit_gates: int
    timeline: Sequence[TimedEvent] = field(default_factory=list, repr=False)
    nbar: dict[int, float] = field(default_factory=dict, repr=False)  # per trap, at the end
    compile_ms: float | None = None

    def to_dict(self) -> dict:
        d = {"shuttles": self.shuttles, "swap_gates": self.swap_gates,
             "space_shifts": self.space_shifts,
             "two_qubit_gates": self.two_qubit_gates,
             "one_qubit_gates": self.one_qubit_gates,
             "makespan_us": self.makespan_us, "success_rate": self.success_rate}
        if self.compile_ms is not None:
            d["compile_ms"] = self.compile_ms
        return d


# enum members read once: a member lookup costs about 0.15 us on Python 3.11,
# which shows on schedules of a handful of events
_KINDS = (EventKind.GATE, EventKind.SWAP, EventKind.SHIFT, EventKind.SHUTTLE)
_AM1 = GateFamily.AM1


def evaluate(sched: Schedule, params: CostParams | None = None, *,
             relax_swap: bool = False, relax_shuttle: bool = False) -> Metrics:
    """Time and grade a schedule; relax flags zero out inserted-op costs for
    the idealized bounds."""
    params = params or CostParams()
    family = params.gate_family
    one_us, one_fidelity = params.single_qubit_duration, params.single_qubit_fidelity
    shift_us = 0.0 if relax_swap else params.space_shift_us
    k1, k2 = params.k1, params.k2
    GATE, SWAP, SHIFT, SHUTTLE = _KINDS
    ready: dict[object, float] = {}
    ready_at = ready.get
    nbar: dict[int, float] = {t.id: 0.0 for t in sched.graph.topology.traps}
    success = 1.0
    makespan = 0.0
    starts, durations, fidelities = array("d"), [], []
    add_start, add_duration, add_fidelity = starts.append, durations.append, fidelities.append
    grades: dict[tuple, tuple[float, float]] = {}
    warns_at_zero = family is _AM1

    def grade(ev: EventRecord) -> tuple[float, float]:
        """One two-qubit gate's (duration, fidelity) on the event's chain,
        computed once per distinct (N, d, nbar of the trap) in this call; an
        AM1 gate at d = 0 is graded afresh, so it warns once per event."""
        key = (ev.chain_ions, ev.ion_dist, nbar[ev.traps[0]])
        graded = grades.get(key)
        if graded is None:
            n, d, heat = key
            tau = gate_duration(family, n, d)
            graded = tau, gate_fidelity(tau, n, heat, params)
            if not (warns_at_zero and d == 0):
                grades[key] = graded
        return graded

    for ev in sched.events:
        kind = ev.kind
        traps = ev.traps
        fidelity = None
        if kind is GATE:
            if len(ev.qubits) == 2:
                dur, fidelity = grade(ev)
            else:
                dur = one_us
                fidelity = one_fidelity
        elif kind is SWAP:
            if relax_swap:
                dur = 0.0
            else:
                one, fidelity = grade(ev)
                dur = params.swap_gate_multiplier * one
                fidelity **= params.swap_gate_multiplier
        elif kind is SHIFT:
            dur = shift_us
        elif kind is SHUTTLE:
            if relax_shuttle:
                dur = 0.0
            else:
                dur = shuttle_duration(ev.segments, ev.junction_degrees, params)
                nbar[traps[1]] += k1 + k2 * ev.segments
        else:  # pragma: no cover
            raise ValueError(f"unknown event kind {kind}")

        # the event starts once every trap and junction it uses is free
        resources = (traps + tuple(("junction", j) for j in ev.junction_ids)
                     if ev.junction_ids else traps)
        start = 0.0
        for r in resources:
            t = ready_at(r, 0.0)
            if t > start:
                start = t
        end = start + dur
        for r in resources:
            ready[r] = end
        if end > makespan:
            makespan = end
        if fidelity is not None:
            success *= fidelity
        add_start(start)
        add_duration(dur)
        add_fidelity(fidelity)

    return Metrics(makespan_us=makespan, success_rate=success, nbar=nbar,
                   timeline=Timeline(sched.events, starts, durations, fidelities),
                   **sched.metrics)
