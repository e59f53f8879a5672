"""Checks on the package source: error handling that survives -O, no
definition without a caller, and no unused import.

``python -O`` strips ``assert`` statements, so a check written as one
vanishes; a bare ``RuntimeError`` says nothing a caller can catch by type.
The package raises typed errors instead.  The only asserts allowed are in
``MachineState.check_consistency``, a test-time self-check.

Every function, method and class of the package must be referred to
somewhere in the program (the package, the benchmarks, the demos and the
tools) outside its own definition and the package's ``__init__`` exports.
``check_consistency``, which only the tests call, is the one exception.

Every module-level import of a package module (``__init__.py``, which
re-exports, aside) must be used in that module; ``from __future__``
imports are exempt.

``EventRecord`` is a slotted dataclass, not a frozen one, so the type no
longer stops a caller from changing an event after ``replay`` checked it or
a digest was taken.  No code of the program assigns or deletes an attribute
named like an event field (outside a class's own ``self``), by statement or
by ``setattr``; changed events are derived with ``dataclasses.replace``.
``Gate`` is slotted and mutable too, and the same check holds for the
names of its fields: a circuit's gates stay as parsed or generated.  So is
the graph's ``Edge``, whose fields must match the graph's per-edge arrays:
no code writes an edge field either.  A slotted, non-frozen dataclass is
not hashable, so nothing may hash an edge or a gate; the tier-1 runs of
every compile path would raise ``TypeError`` if anything did.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import qccdc
from qccdc.circuit import Gate
from qccdc.device import Edge
from qccdc.events import EventRecord

SRC = Path(qccdc.__file__).parent
REPO = Path(__file__).resolve().parent.parent
PROGRAM = [REPO / d for d in ("src", "benchmarks", "demos", "tools")]


def offences(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "MachineState":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "check_consistency":
                    allowed |= {id(node) for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert) and id(node) not in allowed:
            found.append(f"{path.name}:{node.lineno}: assert")
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                found.append(f"{path.name}:{node.lineno}: raise RuntimeError")
    return found


def test_no_asserts_or_bare_runtime_errors():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [o for p in paths for o in offences(p)] == []


def test_the_check_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("class MachineState:\n"
                   "    def check_consistency(self):\n"
                   "        assert True\n"
                   "def f(x):\n"
                   "    assert x\n"
                   "    raise RuntimeError('no')\n")
    assert offences(bad) == ["bad.py:5: assert", "bad.py:6: raise RuntimeError"]


def unreferenced(dirs, package):
    """``file:line: name`` of each non-dunder function, method or class in
    ``package`` that no code under ``dirs`` refers to: by name, as an
    attribute, or by a string equal to the name (as ``getattr`` and the
    benchmark's tracer do).  References inside the definition itself and
    in ``package/__init__.py`` do not count."""
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for d in dirs for p in sorted(d.rglob("*.py"))}
    refs: dict[str, set[int]] = {}
    for path, tree in trees.items():
        if path == package / "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, set()).add(id(node))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.setdefault(node.value, set()).add(id(node))
    found = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name == "check_consistency" or (name.startswith("__") and name.endswith("__")):
                continue
            if not refs.get(name, set()) - {id(n) for n in ast.walk(node)}:
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_every_definition_has_a_caller():
    assert unreferenced(PROGRAM, REPO / "src" / "qccdc") == []


def test_the_caller_check_sees_what_it_forbids(tmp_path):
    pkg, tools = tmp_path / "pkg", tmp_path / "tools"
    pkg.mkdir()
    tools.mkdir()
    (pkg / "__init__.py").write_text("from .mod import Kept, dead, used\n")
    (pkg / "mod.py").write_text(
        "def used():\n"
        "    'Calls Kept, never dead.'\n"
        "    return Kept().go()\n"
        "def dead():\n"
        "    return 'dead'\n"
        "def loops(n):\n"
        "    return loops(n - 1)\n"
        "class Kept:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def go(self):\n"
        "        return getattr(self, 'hooked')\n"
        "    def hooked(self):\n"
        "        pass\n"
        "    def check_consistency(self):\n"
        "        pass\n")
    (tools / "run.py").write_text("import pkg\npkg.used()\n")
    assert unreferenced([pkg, tools], pkg) == ["mod.py:4: dead", "mod.py:6: loops"]


def unused_imports(path):
    """``file:line: name`` of each name a module-level import in ``path``
    binds and no code of the module reads.  ``from __future__`` imports are
    exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names if name not in read]
    return found


def test_every_import_is_used():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert paths
    assert [o for p in paths for o in unused_imports(p)] == []


def test_the_import_check_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from __future__ import annotations\n"
                   "import os.path\n"
                   "import numpy as np\n"
                   "from dataclasses import dataclass, field\n"
                   "from json import loads as parse\n"
                   "def f(x) -> np.ndarray:\n"
                   "    'Uses field in a docstring only.'\n"
                   "    import sys\n"
                   "    return dataclass(x)\n")
    assert unused_imports(bad) == ["bad.py:2: os", "bad.py:4: field", "bad.py:5: parse"]


EVENT_FIELDS = frozenset(f.name for f in dataclasses.fields(EventRecord))
GATE_FIELDS = frozenset(f.name for f in dataclasses.fields(Gate))
EDGE_FIELDS = frozenset(f.name for f in dataclasses.fields(Edge))


def field_writes(path, fields):
    """``file:line: code`` of each attribute write or delete in ``path`` that
    names one of ``fields`` on anything but ``self``, and of each
    ``setattr``-style call that names one."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))
                and node.attr in fields
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
            found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            # ``setattr(obj, name)`` and ``Cls.__setattr__(obj, name)`` take
            # the name second, a bound ``obj.__setattr__(name)`` first
            if (name in ("setattr", "delattr", "__setattr__", "__delattr__")
                    and any(isinstance(a, ast.Constant) and a.value in fields
                            for a in node.args[:2])):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_code_changes_an_event_after_it_is_built():
    paths = [p for d in PROGRAM for p in sorted(d.rglob("*.py"))]
    assert paths
    assert [o for p in paths for o in field_writes(p, EVENT_FIELDS)] == []


def test_the_event_write_check_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("class Ok:\n"
                   "    def __init__(self):\n"
                   "        self.traps = ()\n"
                   "def f(ev, mod, fn):\n"
                   "    ev.traps = (1,)\n"
                   "    del ev.label\n"
                   "    ev.segments += 1\n"
                   "    setattr(ev, 'kind', None)\n"
                   "    object.__setattr__(ev, 'weight', 1.0)\n"
                   "    setattr(mod, 'evaluate', fn)\n"
                   "    EventRecord.__setattr__(ev, 'kind', None)\n")
    assert field_writes(bad, EVENT_FIELDS) == [
        "bad.py:5: ev.traps", "bad.py:6: ev.label", "bad.py:7: ev.segments",
        "bad.py:8: setattr(ev, 'kind', None)",
        "bad.py:9: object.__setattr__(ev, 'weight', 1.0)",
        "bad.py:11: EventRecord.__setattr__(ev, 'kind', None)"]


def test_no_code_changes_a_gate_after_it_is_built():
    assert GATE_FIELDS == {"id", "label", "qubits", "param"}
    paths = [p for d in PROGRAM for p in sorted(d.rglob("*.py"))]
    assert paths
    assert [o for p in paths for o in field_writes(p, GATE_FIELDS)] == []


def test_the_gate_write_check_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("class Ok:\n"
                   "    def __init__(self):\n"
                   "        self.qubits = ()\n"
                   "def f(g, circuit, x):\n"
                   "    g.qubits = (1, 0)\n"
                   "    circuit.gates[0].param = 0.5\n"
                   "    g.id += 1\n"
                   "    del g.label\n"
                   "    setattr(g, 'param', None)\n"
                   "    delattr(g, 'label')\n"
                   "    object.__setattr__(g, 'id', 3)\n"
                   "    g.__delattr__('qubits')\n"
                   "    g.name = 'ok'\n"
                   "    setattr(x, 'n_qubits', 2)\n"
                   "    type(g).__setattr__(g, 'id', 3)\n"
                   "    __setattr__(g, 'param', 0.5)\n"
                   "    return g.qubits, g.param\n")
    assert field_writes(bad, GATE_FIELDS) == [
        "bad.py:5: g.qubits", "bad.py:6: circuit.gates[0].param", "bad.py:7: g.id",
        "bad.py:8: g.label", "bad.py:9: setattr(g, 'param', None)",
        "bad.py:10: delattr(g, 'label')", "bad.py:11: object.__setattr__(g, 'id', 3)",
        "bad.py:12: g.__delattr__('qubits')", "bad.py:15: type(g).__setattr__(g, 'id', 3)",
        "bad.py:16: __setattr__(g, 'param', 0.5)"]


def test_no_code_changes_an_edge_after_it_is_built():
    assert EDGE_FIELDS == {"u", "v", "weight", "segments", "junctions"}
    paths = [p for d in PROGRAM for p in sorted(d.rglob("*.py"))]
    assert paths
    assert [o for p in paths for o in field_writes(p, EDGE_FIELDS)] == []


def test_the_edge_write_check_sees_what_it_forbids(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("class Ok:\n"
                   "    def __init__(self):\n"
                   "        self.u, self.v = 0, 1\n"
                   "def f(graph, e, path):\n"
                   "    graph.edges[3].weight *= 2\n"
                   "    del e.segments\n"
                   "    setattr(e, 'junctions', ())\n"
                   "    Edge.__setattr__(e, 'weight', 0.0)\n"
                   "    e.__delattr__('v')\n"
                   "    e.kind = None\n"
                   "    setattr(graph, 'edge_u', None)\n"
                   "    e.u, e.v = e.v, e.u\n"
                   "    return e.u, path.segments\n")
    assert field_writes(bad, EDGE_FIELDS) == [
        "bad.py:5: graph.edges[3].weight", "bad.py:6: e.segments",
        "bad.py:7: setattr(e, 'junctions', ())", "bad.py:8: Edge.__setattr__(e, 'weight', 0.0)",
        "bad.py:9: e.__delattr__('v')", "bad.py:12: e.u", "bad.py:12: e.v"]


def test_an_edge_is_not_hashable():
    edge = qccdc.to_graph(qccdc.linear_topology(2, 2)).edges[0]
    with pytest.raises(TypeError, match="unhashable"):
        hash(edge)
