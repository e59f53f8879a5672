"""QCCD hardware topologies and their static weighted connectivity graph.

A topology is a multigraph of traps joined by shuttle paths that may cross
junctions.  ``to_graph`` expands it into a slot-level graph: every slot pair
inside a trap gets an intra edge (weight = inner_weight * slot distance),
and the end slots of path-connected traps get shuttle edges
(weight = w * (junctions + 1)).  Every intra weight lies below every
shuttle weight, which ``WeightParams.validate`` enforces.  Of several paths
joining the same two traps only the cheapest becomes edges, so each slot
pair has one edge, and ``trap_dist`` holds the cheapest route cost between
every two traps.  Each edge's class is set as the edge is built; the class
and the edge's occupied endpoints decide its generic swap: the
``EventKind`` in ``EDGE_KINDS``, or None where it allows none.

Edges are numbered in closed form.  The intra edges come first, trap by
trap, each trap's slot pairs ``(i, j)``, ``i < j``, in row-major order: the
row of slot ``u`` holds its pairs with the later slots of its trap, so the
pair ``(u, v)`` is edge ``row_start[u] + v - u - 1``, where ``row_start[u]``
is the trap's first intra edge plus ``i * (2c - i - 1) // 2`` for slot
position ``i`` in a trap of capacity ``c``.  The per-edge arrays are built
from index arrays in that order, and ``edge_id`` finds an intra pair by that
arithmetic.  Only the few shuttle edges, which follow, are found through a
dict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .events import EventKind


@dataclass(frozen=True)
class Trap:
    id: int
    capacity: int


@dataclass(frozen=True)
class Junction:
    id: int
    degree: int  # number of channels meeting at this junction


@dataclass(frozen=True)
class Path:
    """A shuttle path between two traps crossing zero or more junctions."""

    trap_a: int
    trap_b: int
    segments: int = 1
    junctions: tuple[int, ...] = ()


@dataclass(frozen=True)
class Topology:
    traps: tuple[Trap, ...]
    paths: tuple[Path, ...]
    junctions: tuple[Junction, ...]

    def __post_init__(self):
        fields = [("trap id", t.id) for t in self.traps]
        fields += [(f"trap {t.id} capacity", t.capacity) for t in self.traps]
        fields += [("junction id", j.id) for j in self.junctions]
        fields += [(f"junction {j.id} degree", j.degree) for j in self.junctions]
        for p in self.paths:
            fields += [("path trap", p.trap_a), ("path trap", p.trap_b),
                       ("path segments", p.segments)]
            fields += [("path junction", j) for j in p.junctions]
        for what, value in fields:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{what} must be an integer, not {value!r}")
        ids = [t.id for t in self.traps]
        if ids != list(range(len(self.traps))):
            raise ValueError("trap ids must be dense 0..n-1")
        for t in self.traps:
            if t.capacity < 2:
                raise ValueError(f"trap {t.id} capacity {t.capacity} < 2")
        jun_ids = {j.id for j in self.junctions}
        if len(jun_ids) != len(self.junctions):
            raise ValueError("junction ids must be distinct")
        for j in self.junctions:
            if j.degree < 1:
                raise ValueError(f"junction {j.id} degree {j.degree} < 1")
        for p in self.paths:
            if not (0 <= p.trap_a < len(self.traps) and 0 <= p.trap_b < len(self.traps)):
                raise ValueError(f"path {p.trap_a}-{p.trap_b} references an unknown trap")
            if p.trap_a == p.trap_b:
                raise ValueError("path endpoints must be distinct traps")
            if p.segments < 1:
                raise ValueError("path needs at least one segment")
            for j in p.junctions:
                if j not in jun_ids:
                    raise ValueError(f"path references unknown junction {j}")
        if len(self.traps) > 1:
            self._check_connected()

    def _check_connected(self):
        adj: dict[int, set[int]] = {t.id: set() for t in self.traps}
        for p in self.paths:
            adj[p.trap_a].add(p.trap_b)
            adj[p.trap_b].add(p.trap_a)
        seen = {self.traps[0].id}
        stack = [self.traps[0].id]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(self.traps):
            raise ValueError("topology is not connected")

    def with_capacity(self, capacity: int) -> Topology:
        """The same device with every trap holding ``capacity`` slots."""
        return Topology(tuple(Trap(t.id, capacity) for t in self.traps), self.paths,
                        self.junctions)


@dataclass(frozen=True)
class WeightParams:
    inner_weight: float = 0.001
    shuttle_base: float = 1.0

    def __post_init__(self):
        for name in ("inner_weight", "shuttle_base"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def validate(self, max_capacity: int):
        if not 0 < self.inner_weight * (max_capacity - 1) < self.shuttle_base:
            raise ValueError("intra weights must be positive and below the shuttle weight")


# Edge classes, fixed per edge by ``to_graph`` as it builds the edge: an intra
# edge between slots further apart than one, an intra edge between adjacent
# slots, and a shuttle edge between the end slots of two traps.
INTRA_EDGE, ADJACENT_EDGE, SHUTTLE_EDGE = 0, 1, 2

# EDGE_KINDS[edge class][occupied endpoints]: the event kind of the generic
# swap the edge allows, or None where it allows none.  Two qubits may swap on
# any intra edge; a qubit and a space may exchange on an adjacent intra edge
# (a space shift) or on a shuttle edge (a shuttle).
EDGE_KINDS = (
    (None, None, EventKind.SWAP),
    (None, EventKind.SHIFT, EventKind.SWAP),
    (None, EventKind.SHUTTLE, None),
)
VALID_SWAP = np.array([[k is not None for k in row] for row in EDGE_KINDS])


@dataclass(slots=True)
class Edge:
    u: int
    v: int
    weight: float
    # shuttle edges only: segment count and junction ids
    segments: int = 0
    junctions: tuple[int, ...] = ()

    @property
    def is_shuttle(self) -> bool:
        """Every shuttle crosses at least one segment; an intra edge none."""
        return self.segments > 0


def _path_cost(path: Path) -> tuple[int, int]:
    """Orders parallel paths: shuttle weight (junctions + 1), then segments."""
    return len(path.junctions) + 1, path.segments


class DeviceGraph:
    """Slot-level weighted graph of a topology (immutable after construction)."""

    def __init__(self, topology: Topology, params: WeightParams):
        params.validate(max(t.capacity for t in topology.traps))
        self.topology = topology
        self.params = params

        self.node_trap: list[int] = []
        self.node_pos: list[int] = []
        self.trap_slots: dict[int, list[int]] = {}
        for trap in topology.traps:
            slots = []
            for pos in range(trap.capacity):
                nid = len(self.node_trap)
                self.node_trap.append(trap.id)
                self.node_pos.append(pos)
                slots.append(nid)
            self.trap_slots[trap.id] = slots
        self.n_nodes = len(self.node_trap)

        # one shuttle path per trap pair: the cheapest by (weight, segments),
        # the first listed on a tie; shuttle edges and trap routes both use it
        trap_paths: dict[tuple[int, int], Path] = {}
        for path in topology.paths:
            key = (min(path.trap_a, path.trap_b), max(path.trap_a, path.trap_b))
            old = trap_paths.get(key)
            if old is None or _path_cost(path) < _path_cost(old):
                trap_paths[key] = path
        # per trap, its (neighbour, junctions + 1) pairs over those paths,
        # sorted: the trap-level graph of the escape planner and the oracle;
        # ``trap_dist`` is its cheapest route cost between every two traps,
        # by Floyd-Warshall over whole numbers, so exact
        n_traps = len(topology.traps)
        self.trap_adj: dict[int, list[tuple[int, float]]] = {t.id: [] for t in topology.traps}
        self.trap_dist = np.full((n_traps, n_traps), np.inf)
        np.fill_diagonal(self.trap_dist, 0.0)
        for (a, b), path in trap_paths.items():
            w = float(len(path.junctions) + 1)  # relative cost only; scale-free
            self.trap_adj[a].append((b, w))
            self.trap_adj[b].append((a, w))
            self.trap_dist[a, b] = self.trap_dist[b, a] = w
        for adj in self.trap_adj.values():
            adj.sort()
        for k in range(n_traps):
            np.minimum(self.trap_dist, self.trap_dist[:, k:k + 1] + self.trap_dist[k],
                       out=self.trap_dist)

        # intra edges in closed form (see the module docstring): slot u's
        # row starts at edge ``_row_start[u]``, and each weight is a float64
        # product, bit-equal to inner_weight * (v - u) in Python
        caps = [t.capacity for t in topology.traps]
        nodes = np.arange(self.n_nodes)
        row_len = np.repeat(np.cumsum(caps), caps) - nodes - 1
        row_start = np.cumsum(row_len) - row_len
        n_intra = int(row_len.sum())
        gap = np.arange(1, n_intra + 1) - np.repeat(row_start, row_len)  # v - u
        intra_u = np.repeat(nodes, row_len)
        intra_v = intra_u + gap
        intra_w = params.inner_weight * gap
        self._row_start: list[int] = row_start.tolist()
        self.edges: list[Edge] = list(map(Edge, intra_u.tolist(), intra_v.tolist(),
                                          intra_w.tolist()))
        # shuttle edges: (u, v) with u < v -> index into ``edges`` and the arrays
        self._shuttle_index: dict[tuple[int, int], int] = {}
        for path in trap_paths.values():
            w = params.shuttle_base * (len(path.junctions) + 1)
            for u in self._end_slots(path.trap_a):
                for v in self._end_slots(path.trap_b):
                    a, b = (u, v) if u < v else (v, u)
                    self._shuttle_index[a, b] = len(self.edges)
                    self.edges.append(Edge(a, b, w, path.segments, path.junctions))
        shuttles = self.edges[n_intra:]
        # each junction's degree, read for every shuttle event
        self.junction_degree = {j.id: j.degree for j in topology.junctions}

        # static per-edge arrays, in edge order: endpoints, weights, and the
        # class that with the number of occupied endpoints decides the edge's
        # kind (see ``EDGE_KINDS``); an intra edge joins adjacent slots when
        # its node ids differ by one
        self.edge_u = np.concatenate((intra_u, np.array([e.u for e in shuttles], np.intp)))
        self.edge_v = np.concatenate((intra_v, np.array([e.v for e in shuttles], np.intp)))
        self.edge_weight = np.concatenate((intra_w, np.array([e.weight for e in shuttles])))
        self.edge_class = np.full(len(self.edges), SHUTTLE_EDGE, dtype=np.intp)
        self.edge_class[:n_intra] = np.where(gap == 1, ADJACENT_EDGE, INTRA_EDGE)

    def _end_slots(self, trap_id: int) -> tuple[int, int]:
        slots = self.trap_slots[trap_id]
        return slots[0], slots[-1]

    def edge_id(self, u: int, v: int) -> int:
        a, b = (u, v) if u < v else (v, u)
        if 0 <= a < b < self.n_nodes and self.node_trap[a] == self.node_trap[b]:
            return self._row_start[a] + b - a - 1
        index = self._shuttle_index.get((a, b))
        if index is None:
            raise KeyError(f"no edge between nodes {u} and {v}")
        return index

    def edge(self, u: int, v: int) -> Edge:
        return self.edges[self.edge_id(u, v)]


def to_graph(topology: Topology, params: WeightParams | None = None) -> DeviceGraph:
    return DeviceGraph(topology, params or WeightParams())


# ---------------------------------------------------------------------------
# Topology families
# ---------------------------------------------------------------------------

def linear_topology(n: int, capacity: int) -> Topology:
    """L-series: a chain of n traps; each hop crosses one 2-way junction."""
    if n < 2:
        raise ValueError("L-series needs n >= 2")
    traps = tuple(Trap(i, capacity) for i in range(n))
    junctions = tuple(Junction(i, 2) for i in range(n - 1))
    paths = tuple(Path(i, i + 1, segments=1, junctions=(i,)) for i in range(n - 1))
    return Topology(traps, paths, junctions)


def grid_topology(rows: int, cols: int, capacity: int) -> Topology:
    """G-series: rows x cols traps; each grid edge crosses one junction whose
    degree is the number of paths meeting at its grid vertex."""
    if rows * cols < 2:
        raise ValueError("G-series needs at least 2 traps")
    traps = tuple(Trap(r * cols + c, capacity) for r in range(rows) for c in range(cols))

    def degree(r, c):
        return sum(0 <= r + dr < rows and 0 <= c + dc < cols
                   for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)))

    junctions = tuple(Junction(r * cols + c, degree(r, c))
                      for r in range(rows) for c in range(cols))
    paths = []
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c
            # each edge routed through the junction at its lower-id endpoint
            if c + 1 < cols:
                paths.append(Path(here, here + 1, segments=1, junctions=(here,)))
            if r + 1 < rows:
                paths.append(Path(here, here + cols, segments=1, junctions=(here,)))
    return Topology(traps, tuple(paths), junctions)


def star_topology(n: int, capacity: int) -> Topology:
    """S-series: n traps fully connected through one central n-way junction."""
    if n < 2:
        raise ValueError("S-series needs n >= 2")
    traps = tuple(Trap(i, capacity) for i in range(n))
    junctions = (Junction(0, n),)
    paths = tuple(Path(a, b, segments=2, junctions=(0,))
                  for a in range(n) for b in range(a + 1, n))
    return Topology(traps, paths, junctions)


def build_topology(family: str, capacity: int, *, n: int | None = None,
                   rows: int | None = None, cols: int | None = None) -> Topology:
    fam = family.upper()
    if fam == "L":
        return linear_topology(n, capacity)
    if fam == "G":
        return grid_topology(rows, cols, capacity)
    if fam == "S":
        return star_topology(n, capacity)
    raise ValueError(f"unknown topology family '{family}'")


def spec_int(spec: str, part: str, text: str) -> int:
    """``text`` read as ASCII digits; a ValueError that names the spec and its
    malformed part.  ``int`` alone would also read signs, spaces, ``_`` and
    non-ASCII digits: ``L1_0:4`` as 10 traps, ``L\u0663:4`` as 3."""
    if not text.isascii() or not text.isdigit():
        raise ValueError(f"{spec}: {part} '{text}' is not an integer")
    return int(text)


def parse_topology_spec(spec: str, default_capacity: int | None = None) -> Topology:
    """Parse a compact spec string: 'L4:22', 'G2x3:17', 'S4' (capacity after ':')."""
    head, colon, cap_s = spec.partition(":")
    where = f"topology spec '{spec}'"
    capacity = spec_int(where, "capacity", cap_s) if colon else default_capacity
    if capacity is None:
        raise ValueError(f"{where} needs a capacity")
    fam, rest = head[:1].upper(), head[1:]
    if fam == "G":
        rows_s, _, cols_s = rest.partition("x")
        return grid_topology(spec_int(where, "rows", rows_s), spec_int(where, "columns", cols_s),
                             capacity)
    return build_topology(fam, capacity, n=spec_int(where, "trap count", rest))


def topology_from_json(data: dict | str) -> Topology:
    """Load a topology from a JSON object (family form or explicit form).

    A missing key or a field of the wrong type raises ``ValueError``, like
    any other malformed topology."""
    if isinstance(data, str):
        data = json.loads(data)
    try:
        if "family" in data:
            fam = data["family"].upper()
            cap = data["capacity"]
            if fam == "G":
                return grid_topology(data["rows"], data["cols"], cap)
            return build_topology(fam, cap, n=data["n"])
        traps = tuple(Trap(t["id"], t["capacity"]) for t in data["traps"])
        junctions = tuple(Junction(j["id"], j["degree"]) for j in data.get("junctions", []))
        paths = tuple(Path(p["trap_a"], p["trap_b"], p.get("segments", 1),
                           tuple(p.get("junctions", ()))) for p in data["paths"])
    except KeyError as exc:
        raise ValueError(f"topology JSON is missing the key {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed topology JSON: {exc}") from None
    return Topology(traps, paths, junctions)
