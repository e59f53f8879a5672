"""Independent output checker for compiled schedules.

Uses neither ``qccdc.validate`` nor ``MachineState``.  It lays the device out
from the topology description (traps of given capacity, numbered slot by
slot, trap by trap; paths between traps), re-walks the event list on its own
slot array, and checks every event against the circuit, the device and the
replayed occupancy.  A trap cannot go over capacity without some event
moving a qubit into an occupied slot, which the walk rejects.  Event
durations come from its own copy of the timing formulas (FM gates, default
``CostParams``), which gives the makespan bounds.

Only plain attributes of the program's objects are read: events (``kind``
by its string value, ``qubits``, ``gate_id``, ``label``, ``slots``,
``traps``, ``segments``, ``junction_ids``, ``junction_degrees``,
``chain_ions``, ``ion_dist``), gates, the topology, and metric fields.
"""

from __future__ import annotations

import hashlib

# default CostParams timing, in us (FM two-qubit gates)
ONE_QUBIT_US = 10.0
SHIFT_US = 5.0
SPLIT_US = 80.0
MERGE_US = 80.0
MOVE_US = 5.0
JUNCTION_BASE_US = 40.0
JUNCTION_PER_PATH_US = 20.0
REL_TOL = 1e-9

COUNT_FIELDS = ("shuttles", "swap_gates", "space_shifts", "two_qubit_gates",
                "one_qubit_gates")


def fm_gate_us(n_ions: int) -> float:
    return max(13.33 * n_ions - 54.0, 100.0)


def shuttle_us(segments: int, junction_degrees) -> float:
    return (SPLIT_US + segments * MOVE_US + MERGE_US
            + sum(JUNCTION_BASE_US + JUNCTION_PER_PATH_US * d for d in junction_degrees))


def expected_gate_counts(gen: str, size: int, params: dict) -> tuple[int, int]:
    """(one-qubit, two-qubit) gate counts of a generator, in closed form."""
    n = size
    if gen == "qft":
        return n + n * (n - 1) // 2, n * (n - 1)
    if gen == "bv":  # all-ones secret on n+1 qubits
        return 1 + (n + 1) + n, n
    if gen == "qaoa_chain":
        layers = params.get("layers", 20)
        return n + layers * n, layers * (n - 1)
    if gen == "alt":
        layers = params.get("layers", 20)
        return layers * n, layers * (n - 1)
    if gen == "cuccaro_adder":  # 2n Toffolis of 9 one- and 6 two-qubit gates
        return 18 * n, 16 * n + 1
    if gen == "heisenberg":
        return 0, 3 * params.get("trotter_steps", 1) * (n - 1)
    raise ValueError(f"no closed form for generator '{gen}'")


class Device:
    """Slot layout and trap connectivity read from a topology description."""

    def __init__(self, topology):
        self.capacity = [t.capacity for t in topology.traps]
        self.slot_trap: list[int] = []
        self.slot_pos: list[int] = []
        for trap, cap in enumerate(self.capacity):
            self.slot_trap += [trap] * cap
            self.slot_pos += list(range(cap))
        self.first_slot = [0]
        for cap in self.capacity:
            self.first_slot.append(self.first_slot[-1] + cap)
        self.degree = {j.id: j.degree for j in topology.junctions}
        # every way to get from one trap to another: (segments, junction ids)
        self.paths: dict[frozenset, set] = {}
        for p in topology.paths:
            self.paths.setdefault(frozenset((p.trap_a, p.trap_b)), set()).add(
                (p.segments, tuple(p.junctions)))

    @property
    def n_slots(self) -> int:
        return len(self.slot_trap)

    def is_end(self, slot: int) -> bool:
        return self.slot_pos[slot] in (0, self.capacity[self.slot_trap[slot]] - 1)


def check_schedule(circuit, topology, initial_mapping, events) -> tuple[list[str], dict]:
    """Replay ``events`` from ``initial_mapping``; return (problems, summary).

    ``summary`` holds the event counts by kind, the per-event durations' sum
    and the busiest resource's summed duration.
    """
    dev = Device(topology)
    problems: list[str] = []
    slot_qubit: list[int | None] = [None] * dev.n_slots
    where: dict[int, int] = {}
    ions = [0] * len(dev.capacity)
    for qubit, slot in initial_mapping.items():
        if not 0 <= slot < dev.n_slots:
            problems.append(f"initial mapping puts qubit {qubit} on missing slot {slot}")
            continue
        if slot_qubit[slot] is not None:
            problems.append(f"initial mapping puts two qubits on slot {slot}")
            continue
        slot_qubit[slot] = qubit
        where[qubit] = slot
        ions[dev.slot_trap[slot]] += 1
    if sorted(where) != list(range(circuit.n_qubits)):
        problems.append("initial mapping does not place every qubit exactly once")
    if problems:
        return problems, {}

    order = {q: [] for q in range(circuit.n_qubits)}
    for g in circuit.gates:
        for qb in g.qubits:
            order[qb].append(g.id)
    cursor = dict.fromkeys(order, 0)
    executed = bytearray(len(circuit.gates))
    counts = dict.fromkeys(COUNT_FIELDS, 0)
    busy: dict[object, float] = {}
    total_us = 0.0

    def between(trap, a, b):
        lo, hi = sorted((dev.slot_pos[a], dev.slot_pos[b]))
        base = dev.first_slot[trap]
        return sum(slot_qubit[base + p] is not None for p in range(lo + 1, hi))

    for idx, ev in enumerate(events):
        kind = ev.kind.value
        at = f"event {idx} ({kind})"
        if kind == "gate":
            gid = ev.gate_id
            if gid is None or not 0 <= gid < len(circuit.gates):
                problems.append(f"{at}: unknown gate id {gid}")
                continue
            gate = circuit.gates[gid]
            if executed[gid]:
                problems.append(f"{at}: gate {gid} runs twice")
            executed[gid] = 1
            if tuple(ev.qubits) != gate.qubits or ev.label != gate.label:
                problems.append(f"{at}: gate {gid} recorded as {ev.label}{ev.qubits}")
            for qb in gate.qubits:
                if cursor[qb] < len(order[qb]) and order[qb][cursor[qb]] == gid:
                    cursor[qb] += 1
                else:
                    problems.append(f"{at}: gate {gid} out of program order on qubit {qb}")
            slots = tuple(where[qb] for qb in gate.qubits)
            trap = dev.slot_trap[slots[0]]
            if tuple(ev.slots) != slots:
                problems.append(f"{at}: gate {gid} recorded on slots {ev.slots}, "
                                f"qubits sit on {slots}")
            if tuple(ev.traps) != (trap,) or ev.chain_ions != ions[trap]:
                problems.append(f"{at}: gate {gid} trap/chain fields disagree with the replay")
            if len(slots) == 2:
                if dev.slot_trap[slots[1]] != trap:
                    problems.append(f"{at}: gate {gid} operands in different traps")
                elif ev.ion_dist != between(trap, *slots):
                    problems.append(f"{at}: gate {gid} ion distance {ev.ion_dist} is wrong")
                counts["two_qubit_gates"] += 1
                dur = fm_gate_us(ions[trap])
            else:
                counts["one_qubit_gates"] += 1
                dur = ONE_QUBIT_US
            resources = [("trap", trap)]
        else:
            if len(ev.slots) != 2 or not all(0 <= s < dev.n_slots for s in ev.slots):
                problems.append(f"{at}: bad slots {ev.slots}")
                continue
            u, v = ev.slots
            qu, qv = slot_qubit[u], slot_qubit[v]
            tu, tv = dev.slot_trap[u], dev.slot_trap[v]
            if kind == "swap":
                if qu is None or qv is None or tu != tv or u == v:
                    problems.append(f"{at}: slots {u},{v} are not two qubits in one trap")
                    continue
                if set(ev.qubits) != {qu, qv} or tuple(ev.traps) != (tu,) \
                        or ev.chain_ions != ions[tu] or ev.ion_dist != between(tu, u, v):
                    problems.append(f"{at}: swap fields disagree with the replay")
                counts["swap_gates"] += 1
                dur = fm_gate_us(ions[tu])
                resources = [("trap", tu)]
            elif kind == "shift":
                if (qu is None) == (qv is None) or tu != tv \
                        or abs(dev.slot_pos[u] - dev.slot_pos[v]) != 1:
                    problems.append(f"{at}: slots {u},{v} are not a qubit and an adjacent space")
                    continue
                if tuple(ev.qubits) != (qu if qu is not None else qv,) or tuple(ev.traps) != (tu,):
                    problems.append(f"{at}: shift fields disagree with the replay")
                counts["space_shifts"] += 1
                dur = SHIFT_US
                resources = [("trap", tu)]
            elif kind == "shuttle":
                if qu is None or qv is not None:
                    problems.append(f"{at}: shuttle source {u} empty or destination {v} occupied")
                    continue
                if tu == tv or not (dev.is_end(u) and dev.is_end(v)):
                    problems.append(f"{at}: shuttle {u}->{v} is not end slot to end slot "
                                    f"of two traps")
                    continue
                route = (ev.segments, tuple(ev.junction_ids))
                if route not in dev.paths.get(frozenset((tu, tv)), ()):
                    problems.append(f"{at}: no path {route} joins traps {tu} and {tv}")
                    continue
                if tuple(ev.junction_degrees) != tuple(dev.degree[j] for j in ev.junction_ids) \
                        or tuple(ev.qubits) != (qu,) or tuple(ev.traps) != (tu, tv):
                    problems.append(f"{at}: shuttle fields disagree with the replay")
                counts["shuttles"] += 1
                dur = shuttle_us(ev.segments, [dev.degree[j] for j in ev.junction_ids])
                resources = [("trap", tu), ("trap", tv)]
                resources += [("junction", j) for j in ev.junction_ids]
                ions[tu] -= 1
                ions[tv] += 1
                if ev.chain_ions != ions[tv]:
                    problems.append(f"{at}: shuttle chain length {ev.chain_ions} is wrong")
            else:
                problems.append(f"{at}: unknown event kind")
                continue
            slot_qubit[u], slot_qubit[v] = qv, qu
            if qu is not None:
                where[qu] = v
            if qv is not None:
                where[qv] = u
        if len(problems) > 20:
            break
        total_us += dur
        for r in resources:
            busy[r] = busy.get(r, 0.0) + dur

    missing = len(executed) - sum(executed)
    if missing:
        problems.append(f"{missing} circuit gates never run")
    return problems, {"counts": counts, "total_us": total_us,
                      "busiest_us": max(busy.values(), default=0.0)}


def check_metrics(summary: dict, sched_counts: dict, metrics, ideal_success: float) -> list[str]:
    """Event counts, makespan bounds and success bounds of one schedule."""
    problems = []
    counts = summary["counts"]
    for f in COUNT_FIELDS:
        if sched_counts[f] != counts[f] or getattr(metrics, f) != counts[f]:
            problems.append(f"{f}: replay {counts[f]}, Schedule.metrics {sched_counts[f]}, "
                            f"Metrics {getattr(metrics, f)}")
    lo, hi = summary["busiest_us"], summary["total_us"]
    if not lo * (1 - REL_TOL) <= metrics.makespan_us <= hi * (1 + REL_TOL):
        problems.append(f"makespan {metrics.makespan_us} outside [{lo}, {hi}]")
    if not 0.0 < metrics.success_rate <= ideal_success * (1 + REL_TOL):
        problems.append(f"success {metrics.success_rate} outside (0, {ideal_success}]")
    return problems


def check_parsed(parsed, expected) -> list[str]:
    """The parser's circuit equals the circuit the QASM text was written from."""
    if parsed.n_qubits != expected.n_qubits or len(parsed.gates) != len(expected.gates):
        return [f"parsed {parsed.n_qubits} qubits/{len(parsed.gates)} gates, "
                f"wrote {expected.n_qubits}/{len(expected.gates)}"]
    for a, b in zip(parsed.gates, expected.gates):
        if (a.label, a.qubits, a.param) != (b.label, b.qubits, b.param):
            return [f"gate {b.id} parsed as {a.label}{a.qubits}({a.param})"]
    return []


def check_gate_counts(generated, gen: str, size: int, params: dict) -> list[str]:
    one, two = expected_gate_counts(gen, size, params)
    got = (generated.one_qubit_count, generated.two_qubit_count)
    if got != (one, two):
        return [f"{gen}:{size} has (1q, 2q) = {got}, closed form gives {(one, two)}"]
    return []


def digest(events) -> str:
    """SHA-256 over every field of every event, in order."""
    h = hashlib.sha256()
    for ev in events:
        h.update(repr((ev.kind.value, tuple(ev.qubits), ev.gate_id, ev.label, tuple(ev.slots),
                       tuple(ev.traps), ev.segments, tuple(ev.junction_ids),
                       tuple(ev.junction_degrees), ev.weight, ev.chain_ions,
                       ev.ion_dist)).encode())
    return h.hexdigest()
