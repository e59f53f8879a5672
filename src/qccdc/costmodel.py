"""Timing and fidelity model: event durations, heat, makespan, success rate.

Durations come from the modulation-family formulas (FM scales with chain
length, PM/AM with ion separation) and from the shuttle primitive times
(split, per-segment move, junction crossing proportional to channel count,
merge).  Two-qubit fidelity is 1 - Gamma*tau - A*(2*nbar + 1) with
A = a0 * N / ln(N); Gamma is quanta per second and tau is converted from
microseconds inside the formula.

``evaluate`` assigns start times by resource-availability list scheduling:
an event starts once every trap and junction it uses is free, preserving
the event-list order per resource.  Shuttle heat lands on the destination
trap when the shuttle completes.
"""

from __future__ import annotations

import enum
import math
import warnings
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
        for name in ("single_qubit_duration", "move_us", "split_us", "merge_us",
                     "junction_base_us", "junction_per_path_us", "space_shift_us",
                     "swap_gate_multiplier"):
            if getattr(self, name) < 0:
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


@dataclass
class TimedEvent:
    event: EventRecord
    start_us: float
    duration_us: float
    fidelity: float | None  # None for events with no direct fidelity factor


@dataclass
class Metrics:
    makespan_us: float
    success_rate: float
    shuttles: int
    swap_gates: int
    space_shifts: int
    two_qubit_gates: int
    one_qubit_gates: int
    timeline: list[TimedEvent] = field(default_factory=list, repr=False)
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


def evaluate(sched: Schedule, params: CostParams | None = None, *,
             relax_swap: bool = False, relax_shuttle: bool = False) -> Metrics:
    """Time and grade a schedule; relax flags zero out inserted-op costs for
    the idealized bounds."""
    params = params or CostParams()
    ready: dict[object, float] = {}
    nbar: dict[int, float] = {t.id: 0.0 for t in sched.graph.topology.traps}
    success = 1.0
    makespan = 0.0
    timeline: list[TimedEvent] = []

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
                dst = ev.traps[1]
                nbar[dst] += sched.heat.dest_fraction * params.k1 + params.k2 * ev.segments
                if sched.heat.dest_fraction < 1.0:
                    nbar[ev.traps[0]] += (1.0 - sched.heat.dest_fraction) * params.k1
        else:  # pragma: no cover
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
                   **sched.metrics)
