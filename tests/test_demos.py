"""Every demo runs to the end as a script, printing its report."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_there_are_four_demos():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_", "04_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    if demo.name.startswith("01_"):
        assert "replay check: OK" in out
        assert "16 shuttle edges" in out
