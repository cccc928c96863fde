"""Smoke test: every demo script runs to the end and prints its report.

Each demo is copied into a temporary directory first, so the files that
superconvergence_rates.py writes beside itself land there.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# one line each demo must print
EXPECTED = {
    "boundary_conditions.py": "two-constraint residuals of f at (-1.2, 1.2):",
    "boundary_split.py": "--- kernel m = 2, C = 0.8, interior |x| <= 0.6 ---",
    "mercer_extension.py": "leading eigenvalues (kappa_1 solves omega tan omega = 1):",
    "sequence_model.py": "superconvergent bound: 1000/1000 hold",
    "superconvergence_rates.py": "--- C = 1.2 (support contained) ---",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, tmp_path, capsys):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert EXPECTED[name] in out.splitlines()
