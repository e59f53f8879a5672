"""Checks on the package source that keep its error handling intact under -O.

``python -O`` strips ``assert`` statements, so a check written as one
vanishes; a bare ``RuntimeError`` says nothing a caller can catch by type.
The package raises typed errors instead.  The only asserts allowed are in
``MachineState.check_consistency``, a test-time self-check.
"""

import ast
from pathlib import Path

import qccdc

SRC = Path(qccdc.__file__).parent


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
