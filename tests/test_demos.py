"""Every demo script runs to completion against the current package."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    # demos that write a file take its path as the first argument
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path / "out.csv")])
    if script.stem == "04_regeneration_locus":
        # the demo ends on a trace below the locus fold, which warns by design
        with pytest.warns(UserWarning, match="no regeneration root"):
            runpy.run_path(str(script), run_name="__main__")
    else:
        runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
