"""Every demo script runs to the end.  Each runs from a copy, since the demos
write their CSV files beside themselves."""

import pathlib
import runpy
import shutil

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, capsys):
    runpy.run_path(shutil.copy(demo, tmp_path), run_name="__main__")
    assert capsys.readouterr().out
