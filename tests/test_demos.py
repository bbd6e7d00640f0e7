"""Every narrative walk-through in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectral_cheb

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def run_demo(demo, cwd):
    src = str(Path(spectral_cheb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=600)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_variance_demo_poisson_column_is_inf(tmp_path):
    # log's series diverges against Poisson's survivals at every N
    proc = run_demo(DEMO_DIR / "degree_distribution_variance.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:2] == ["N", "optimal"])
    rows = [line.split() for line in lines[header + 1 : header + 5]]
    assert [row[0] for row in rows] == ["5", "10", "20", "50"]
    assert [row[2] for row in rows] == ["inf"] * 4
    assert all(0.0 < float(row[1]) < float(row[3]) for row in rows)
