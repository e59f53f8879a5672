"""Generic-swap shuttling scheduler.

Outer loop: run every ready gate whose qubits share a trap
(``state.run_ready_gates``); when the frontier is blocked, score every valid
generic swap (SWAP gate, space shift, shuttle) and apply the cheapest one.
What an edge allows, where qubits sit and what a move does all come from
``MachineState``; this module only decides which move to make.

A swap's score is the best frontier gate's shortest-path distance plus a
penalty for traps left without free space, decayed for recently-moved
qubits, under the post-swap mapping.  The cheapest swap has the smallest key
``(score + own edge weight, undo, u, v)``, where ``undo`` marks the edge just
applied.  It is applied only if its score alone is below the current
frontier score; the weight is left out of that test because adding it and
taking it off again rounds, which let no-op swaps pass as progress.

A candidate is an edge id, and the scan is one mask over the graph's static
per-edge arrays: the graph fixes each edge's class (intra, adjacent intra,
shuttle) once, the state keeps a 0/1 occupancy per slot, and
``VALID_SWAP[class, occupied endpoints]`` says which edges are generic swaps
now.  The chosen move is applied by its slot pair, whose shuttle route the
state reads from ``DeviceGraph.trap_path``.  Scoring has two paths that give
the same floats.  ``heuristic_scores`` scores every (candidate x frontier gate) pair
in one numpy expression; ``heuristic_h`` scores one candidate in plain
Python.  A scan takes the numpy path from ``VECTOR_MIN_PAIRS`` pairs on.
Small scans stay scalar because numpy's fixed cost per call outweighs the
work there: on tiny graphs such as ``random_instance``'s (4-9 slots, a
couple of scans per ``schedule`` call) a numpy-only scorer made compiles
slower.

Path distances ignore occupancy (they measure geometry, not immediate
feasibility), and ``schedule`` builds the whole table once per call, in
closed form.  The slot graph is block-structured: each trap is a complete
block of intra edges, and shuttle edges join both end slots of two traps.
So a distance between traps is the walk to the nearer end slot, the
cheapest trap route in shuttle units, and the walk in from the other
trap's nearer end; inside one trap it is the intra weight times the slot
distance.

Because the distance table ignores occupancy, enabling moves (shifting a
space to a trap end so a shuttle becomes legal) never lower any gate's
score, and the candidate loop can cycle through no-op shifts.  Whenever the
best candidate fails to strictly improve the frontier score, the scheduler
falls back to an explicit deterministic routing plan for the lowest-id
blocked gate: free a space in each trap along the route (cascading an
eviction out of full traps when needed), walk the moving qubit to a trap
end, and shuttle it hop by hop.  The planner tries its moves on the live
``MachineState`` and takes them back before returning.  The scheduler then
applies the plan one generic swap at a time, running ready gates after each,
until the blocked gate has run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, DepGraph, build_dag
from .device import SHUTTLE_EDGE, VALID_SWAP, DeviceGraph
from .events import EventKind, EventRecord
from .state import MachineState, run_ready_gates


# A scan scores len(candidates) x len(frontier) pairs.  From this many pairs
# on, ``heuristic_scores`` (numpy) is faster than calling ``heuristic_h`` per
# candidate; below it numpy's fixed cost per call dominates.  Measured on
# random L/G/S states (2-vCPU Xeon VM, Python 3.11, numpy 2.4): the two break
# even at 80-111 pairs, where one scan costs about 60 us either way.
VECTOR_MIN_PAIRS = 96

# a gate whose qubit a generic swap moved within this many iterations has its
# score scaled by 1 + delta (SABRE's decay)
DECAY_RESET_WINDOW = 5


@dataclass(frozen=True)
class SchedulerParams:
    delta: float = 0.001
    iteration_cap_per_gate: int = 10000

    def __post_init__(self):
        if not 0 <= self.delta < np.inf:  # NaN fails the test too
            raise ValueError("delta must be finite and >= 0")
        cap = self.iteration_cap_per_gate
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
            raise ValueError(f"iteration_cap_per_gate must be an integer >= 1, not {cap!r}")


class SchedulerStuck(ValueError):
    """Routing hit the per-gate swap cap without running a gate."""

    def __init__(self, frontier, iterations):
        super().__init__(
            f"no progress after {iterations} generic swaps; stuck frontier: {sorted(frontier)}")
        self.frontier = set(frontier)


class DeviceFull(ValueError):
    """Every trap is full, so no qubit can be shuttled to route a gate."""


@dataclass
class Schedule:
    events: list[EventRecord]
    circuit: Circuit
    graph: DeviceGraph
    initial_mapping: dict[int, int]

    @property
    def metrics(self) -> dict[str, int]:
        counts = {"shuttles": 0, "swap_gates": 0, "space_shifts": 0,
                  "two_qubit_gates": 0, "one_qubit_gates": 0}
        for e in self.events:
            if e.kind is EventKind.SHUTTLE:
                counts["shuttles"] += 1
            elif e.kind is EventKind.SWAP:
                counts["swap_gates"] += 1
            elif e.kind is EventKind.SHIFT:
                counts["space_shifts"] += 1
            elif len(e.qubits) == 2:
                counts["two_qubit_gates"] += 1
            else:
                counts["one_qubit_gates"] += 1
        return counts

    @property
    def inserted_weight(self) -> float:
        return sum(e.weight for e in self.events)


def distance_table(graph: DeviceGraph) -> np.ndarray:
    """Slot-to-slot shortest-path distance, in units of the shuttle base
    weight, so scaling every device weight by a common factor gives the
    same table.

    Inside a trap it is ``r * |i - j|`` with ``r = inner_weight /
    shuttle_base``.  Between traps it is ``walk[i] + route + walk[j]``,
    added left to right as a path sums: ``walk`` is ``r`` times the steps
    to the nearer end slot and ``route`` the cheapest trap route,
    ``graph.trap_dist`` (junctions + 1 per hop).  Passing through a trap
    costs no intra step, as shuttle edges join both end slots, and a trap
    route (at least 1) outweighs any walk inside one trap (below 1, as
    ``WeightParams.validate`` requires)."""
    trap = np.array(graph.node_trap)
    pos = np.array(graph.node_pos)
    last = np.array([len(graph.trap_slots[t]) - 1 for t in graph.node_trap])
    r = graph.params.inner_weight / graph.params.shuttle_base
    walk = r * np.minimum(pos, last - pos)
    table = walk[:, None] + graph.trap_dist[trap[:, None], trap] + walk
    same = trap[:, None] == trap
    table[same] = (r * np.abs(pos[:, None] - pos))[same]
    return table


def candidates(state: MachineState, graph: DeviceGraph) -> np.ndarray:
    """Indices of the edges currently usable as a generic swap, in edge order."""
    occ = state.occupied
    return np.flatnonzero(VALID_SWAP[graph.edge_class, occ[graph.edge_u] + occ[graph.edge_v]])


def _penalty_change(u: int, v: int, state: MachineState) -> int:
    """Change in the number of spaceless traps if the shuttle on (u, v) runs.
    A shuttle is the one move between two traps, so no other move changes it."""
    trap = state.graph.node_trap
    src, dst = (trap[u], trap[v]) if state.slot_qubit[u] is not None else (trap[v], trap[u])
    return (len(state.spaces[dst]) == 1) - (not state.spaces[src])


def heuristic_h(u: int, v: int, state: MachineState, frontier_gates, dist) -> float:
    """Frontier score after the candidate swap on slots (u, v): min over
    frontier gates of decay * (distance under the post-swap mapping +
    penalty).

    The swap's own weight is not included: ``schedule`` adds it to rank
    candidates, and compares this score alone with the current one to decide
    whether the swap improves anything.  ``dist`` is in units of the shuttle
    base weight and the penalty counts one unit per spaceless trap, so
    scaling every device weight by a common factor reproduces the same
    floats.  The edge must be a candidate, so a shuttle edge moves a qubit."""
    # temporary mapping: only the moved qubit(s) change slots
    moved: dict[int, int] = {}
    qu, qv = state.slot_qubit[u], state.slot_qubit[v]
    if qu is not None:
        moved[qu] = v
    if qv is not None:
        moved[qv] = u

    pen = state.traps_without_space
    if state.graph.node_trap[u] != state.graph.node_trap[v]:  # a shuttle
        pen += _penalty_change(u, v, state)

    best = np.inf
    mapping = state.mapping
    for q1, q2, decay_factor in frontier_gates:
        s1 = moved[q1] if q1 in moved else mapping[q1]
        s2 = moved[q2] if q2 in moved else mapping[q2]
        score = (dist[s1][s2] + pen) * decay_factor
        if score < best:
            best = score
    return best


def heuristic_scores(cand: np.ndarray, state: MachineState, graph: DeviceGraph,
                     frontier_gates, dist: np.ndarray) -> np.ndarray:
    """``heuristic_h`` of every candidate edge index in ``cand`` at once.

    Same operations in the same order on float64, so each score equals the
    scalar one exactly; ``dist`` is the distance table as an ndarray."""
    mapping = state.mapping
    slots = np.array([(mapping[q1], mapping[q2]) for q1, q2, _ in frontier_gates])
    decay_factor = np.array([f for _, _, f in frontier_gates])
    # post-swap slots of each frontier gate, one row per candidate: the
    # qubit on u moves to v and the one on v to u
    u, v = graph.edge_u[cand][:, None, None], graph.edge_v[cand][:, None, None]
    moved = np.where(slots == u, v, np.where(slots == v, u, slots))

    pen = np.full(len(cand), state.traps_without_space)
    shuttle = np.flatnonzero(graph.edge_class[cand] == SHUTTLE_EDGE)
    for k, a, b in zip(shuttle.tolist(), u[shuttle, 0, 0].tolist(), v[shuttle, 0, 0].tolist()):
        pen[k] += _penalty_change(a, b, state)

    return ((dist[moved[..., 0], moved[..., 1]] + pen[:, None]) * decay_factor).min(axis=1)


# ---------------------------------------------------------------------------
# Deterministic enabling-move planner (escape from heuristic plateaus)
# ---------------------------------------------------------------------------

def _trap_route(graph: DeviceGraph, src: int, dst: int) -> list[int]:
    """Cheapest trap-level route, ties broken by lexicographic trap sequence:
    each hop goes to the lowest-id neighbour still on a cheapest route.

    ``Topology`` rejects disconnected devices, so the route exists."""
    cost = graph.trap_dist
    route = [src]
    while route[-1] != dst:
        here = route[-1]
        route.append(next(nb for nb, w in graph.trap_adj[here]
                          if w + cost[nb, dst] == cost[here, dst]))
    return route


class _EscapePlanner:
    """Builds an edge sequence that makes one blocked gate executable.

    Plans by moving ions on the live ``MachineState``; ``route`` takes every
    move back before it returns or raises, so planning leaves the state as
    it found it.
    """

    def __init__(self, state: MachineState, graph: DeviceGraph):
        self.graph = graph
        self.state = state
        self.plan: list[tuple[int, int]] = []

    def _move(self, u: int, v: int):
        self.state._exchange(u, v)
        self.plan.append((u, v))

    def _walk(self, trap: int, start: int, end: int):
        """Carry the content of position start to position end, one slot at a time."""
        slots = self.graph.trap_slots[trap]
        step = 1 if start < end else -1
        for p in range(start, end, step):
            self._move(slots[p], slots[p + step])

    def _dest_end(self, trap: int) -> int:
        """End position to receive a shuttle; shifts a space there if needed."""
        cap = len(self.graph.trap_slots[trap])
        spaces = self.state.spaces[trap]
        if 0 in spaces:
            return 0
        if cap - 1 in spaces:
            return cap - 1
        near = min(spaces, key=lambda p: (min(p, cap - 1 - p), p))
        end = 0 if near <= cap - 1 - near else cap - 1
        self._walk(trap, near, end)  # no space lies nearer to that end than ``near``
        return end

    def _make_space_in(self, trap: int, protected: set[int]):
        """Cascade qubits toward the nearest trap with a free space."""
        # BFS by hop count, deterministic by trap id
        prev = {trap: None}
        queue = deque([trap])
        goal = None
        while queue:
            t = queue.popleft()
            if self.state.spaces[t]:
                goal = t
                break
            for nb, _ in self.graph.trap_adj[t]:
                if nb not in prev:
                    prev[nb] = t
                    queue.append(nb)
        if goal is None:
            raise DeviceFull(f"no free slot on the device to make room in trap {trap}: "
                             f"every trap is full, so no qubit can move between traps")
        path = []
        t = goal
        while t is not None:
            path.append(t)
            t = prev[t]
        # path runs goal -> ... -> trap; move one end qubit per hop outward.
        # Each giving trap is still full, and the two protected qubits (the
        # gate's, never in one trap) guard at most one of its ends
        for recv, give in zip(path, path[1:]):
            dst = self._dest_end(recv)
            slots = self.graph.trap_slots[give]
            pick = 0 if self.state.slot_qubit[slots[0]] not in protected else len(slots) - 1
            self._move(slots[pick], self.graph.trap_slots[recv][dst])

    def route(self, mover: int, stay: int) -> list[tuple[int, int]]:
        g, mapping = self.graph, self.state.mapping
        route = _trap_route(g, g.node_trap[mapping[mover]], g.node_trap[mapping[stay]])
        protected = {mover, stay}
        try:
            for t_next in route[1:]:
                t_cur = g.node_trap[mapping[mover]]
                if not self.state.spaces[t_next]:
                    self._make_space_in(t_next, protected)
                dst = self._dest_end(t_next)
                cap = len(g.trap_slots[t_cur])
                pos = g.node_pos[mapping[mover]]
                src = 0 if pos <= (cap - 1) / 2 else cap - 1
                self._walk(t_cur, pos, src)
                self._move(g.trap_slots[t_cur][src], g.trap_slots[t_next][dst])
        finally:
            # an exchange is its own inverse, so undoing in reverse restores the state
            for u, v in reversed(self.plan):
                self.state._exchange(u, v)
        return self.plan


def plan_escape(state: MachineState, graph: DeviceGraph, q1: int, q2: int,
                dag: DepGraph) -> list[tuple[int, int]]:
    """Plan both routing directions for a blocked gate and keep the lighter.

    When both weigh the same, the qubit with fewer unexecuted two-qubit gates
    in ``dag`` moves, so the busier operand stays near its future partners;
    on a further tie q2 moves."""
    norm = graph.params.shuttle_base
    # plans[0] moves q2, plans[1] moves q1
    plans = [_EscapePlanner(state, graph).route(mover, stay)
             for mover, stay in ((q2, q1), (q1, q2))]
    w2, w1 = (sum(float(graph.edge_weight[graph.edge_id(u, v)]) / norm for u, v in plan)
              for plan in plans)
    if w1 != w2:
        return plans[w1 < w2]
    left1, left2 = (sum(dag.gates[gid].is_two_qubit for gid in dag.on_qubit[q][dag.cursor[q]:])
                    for q in (q1, q2))
    return plans[left1 < left2]


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatParams:
    """Accepted by ``schedule`` and ignored, as ``benchmarks/run.py`` still
    passes one: ``costmodel.evaluate`` grades heat from ``CostParams``."""

    k1: float = 0.1
    k2: float = 0.01


def schedule(circuit: Circuit, graph: DeviceGraph, initial_mapping: dict[int, int],
             params: SchedulerParams | None = None,
             heat: HeatParams | None = None) -> Schedule:
    """Run the full generic-swap scheduling loop over the circuit DAG;
    ``heat`` is ignored, as ``benchmarks/run.py`` still passes it."""
    params = params or SchedulerParams()
    state = MachineState(graph, initial_mapping, circuit.n_qubits)
    dag = build_dag(circuit)
    norm = graph.params.shuttle_base
    # looked up at call time: the benchmark's tracer wraps it.  The numpy
    # scorer reads the array, the scalar one its nested lists
    dist_array = distance_table(graph)
    dist = dist_array.tolist()

    # the iteration of the last generic swap that moved each qubit
    last_moved = [-DECAY_RESET_WINDOW - 1] * circuit.n_qubits
    events: list[EventRecord] = []
    iteration = 0
    swaps_since_gate = 0
    prev_edge: tuple[int, int] | None = None

    def run_gates():
        nonlocal swaps_since_gate
        if run_ready_gates(state, dag, events):
            swaps_since_gate = 0

    def apply_edge(u: int, v: int):
        """Apply one generic swap, then run whatever gates it made ready."""
        nonlocal iteration, prev_edge, swaps_since_gate
        ev = state.apply_generic_swap(u, v)
        events.append(ev)
        iteration += 1
        for q in ev.qubits:
            last_moved[q] = iteration
        prev_edge = (u, v) if u < v else (v, u)
        swaps_since_gate += 1
        if swaps_since_gate > params.iteration_cap_per_gate:
            raise SchedulerStuck(dag.frontier, iteration)
        run_gates()

    run_gates()
    while len(dag):
        frontier_gates = []
        for gid in sorted(dag.frontier):
            g = dag.gates[gid]
            q1, q2 = g.qubits
            recent = iteration - max(last_moved[q1], last_moved[q2]) <= DECAY_RESET_WINDOW
            frontier_gates.append((q1, q2, 1.0 + params.delta if recent else 1.0))

        pen_now = state.traps_without_space
        current_min = min((dist[state.mapping[q1]][state.mapping[q2]] + pen_now) * f
                          for q1, q2, f in frontier_gates)

        # one candidates() call per scan, looked up at call time: the
        # benchmark's tracer wraps it to count heuristic scans.  ``scored``
        # holds (score, score + own weight, u, v) as Python scalars, gathered
        # a column at a time; the numpy path keeps only the candidates tied
        # at the smallest score + weight
        cand = candidates(state, graph)
        if len(cand) * len(frontier_gates) >= VECTOR_MIN_PAIRS:
            raw = heuristic_scores(cand, state, graph, frontier_gates, dist_array)
            h = raw + graph.edge_weight[cand] / norm
            tied = np.flatnonzero(h == h.min())
            scored = list(zip(raw[tied].tolist(), h[tied].tolist(),
                              graph.edge_u[cand[tied]].tolist(),
                              graph.edge_v[cand[tied]].tolist()))
        else:
            scored = []
            for u, v, w in zip(graph.edge_u[cand].tolist(), graph.edge_v[cand].tolist(),
                               graph.edge_weight[cand].tolist()):
                r = heuristic_h(u, v, state, frontier_gates, dist)
                scored.append((r, r + w / norm, u, v))
        best = min(scored, default=None,
                   key=lambda t: (t[1], prev_edge == (t[2], t[3]), t[2], t[3]))
        # improving means the score alone drops: adding the weight and taking
        # it off again rounds, and would let a no-op swap pass as progress
        if best is not None and best[0] < current_min:
            apply_edge(best[2], best[3])
            continue

        # plateau: no candidate lowers the frontier score; route the lowest-id
        # blocked gate explicitly, stopping once it has run
        gid = min(dag.frontier)
        q1, q2 = dag.gates[gid].qubits
        plan = plan_escape(state, graph, q1, q2, dag)
        if not plan:
            raise SchedulerStuck(dag.frontier, iteration)
        for u, v in plan:
            apply_edge(u, v)
            if gid not in dag.frontier:
                break

    return Schedule(events, circuit, graph, dict(initial_mapping))
