"""Per-layer tracing from outside the program.

``Tracer.install`` replaces module attributes and methods that the program
looks up at call time with wrappers that time each call, count it, and
credit it to the phase the benchmark is in (``compile`` or ``verify``).
Spans and counters stay in memory; ``take`` hands the current phase's
totals to the benchmark after each phase, and ``dump`` writes everything
when the run ends.  Self time of a span is its duration minus the time of
the wrapped calls nested inside it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# functions called so often that only their totals are kept, no spans
HOT = {"candidates", "heuristic_h", "build_dag"}


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.totals: dict[str, list] = {}   # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.child_time: list[float] = []    # one accumulator per open wrapped call
        self.open_spans: list[int] = []
        self.spans: list[dict] = []
        self.phase_log: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, on_result=None):
        tracer = self
        keep_span = name not in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.child_time
            stack.append(0.0)
            if keep_span:
                span = {"name": name, "phase": tracer.phase,
                        "parent": tracer.open_spans[-1] if tracer.open_spans else None}
                tracer.open_spans.append(len(tracer.spans))
                tracer.spans.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = tracer.totals.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if keep_span:
                    tracer.open_spans.pop()
                    span["start"], span["end"] = t0, t1
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, q):
        """Wrap the layers' public functions; ``uninstall`` undoes it."""
        sched_mod, mapping_mod = q.scheduler, q.mapping

        def on_parse(c, args, circuit):
            c["gates_parsed"] += len(circuit.gates)

        def on_graph(c, args, graph):
            c["edges"] += len(graph.edges)

        def on_candidates(c, args, found):
            c["edges_classified"] += len(args[1].edges)
            c["valid_candidates"] += len(found)

        def on_plan(c, args, plan):
            c["planned_ops"] += len(plan)

        def on_evaluate(c, args, metrics):
            c["events"] += len(args[0].events)

        for attr, hook in (("parse_qasm", on_parse), ("to_graph", on_graph),
                           ("initial_mapping", None), ("schedule", None),
                           ("evaluate", on_evaluate), ("replay", None),
                           ("exact_schedule", None)):
            self._patch(q, attr, self._timed(attr, getattr(q, attr), hook))
        for attr, hook in (("candidates", on_candidates), ("heuristic_h", None),
                           ("plan_escape", on_plan), ("distance_table", None),
                           ("build_dag", None)):
            self._patch(sched_mod, attr, self._timed(attr, getattr(sched_mod, attr), hook))
        self._patch(mapping_mod, "build_dag", sched_mod.build_dag)
        for attr in ("classify", "apply_generic_swap"):
            self._patch(q.MachineState, attr,
                        self._counted(attr, getattr(q.MachineState, attr)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- phases -------------------------------------------------------------

    def begin(self, phase: str):
        self.phase = phase
        self.totals = {}
        self.counts.clear()

    def take(self, seconds: float) -> dict:
        """Close the current phase; return its totals and counts."""
        out = {"phase": self.phase, "seconds": seconds,
               "totals": {k: list(v) for k, v in self.totals.items()},
               "counts": dict(self.counts)}
        self.phase_log.append(out)
        self.phase = "setup"
        return out

    def dump(self, path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "phases": self.phase_log,
                                    "spans": self.spans}) + "\n")
