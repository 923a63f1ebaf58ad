"""Smoke tests: every example script must run cleanly."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"
    assert "False" not in out.split("verified=")[-1][:6], out


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "network_provisioning.py", "tradeoff_curve.py"} <= names
    assert len(EXAMPLES) >= 3
