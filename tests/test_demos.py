"""Smoke test of the demos: each runs to completion and prints its golden output.

Each demo runs with RuntimeWarnings as errors, the suite's warnings policy,
and must leave stderr empty."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_golden_output(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                         capture_output=True, text=True, env=env, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_text()
