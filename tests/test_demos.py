"""Each demo prints what it printed when its expected output was recorded.

The demos are deterministic.  An expected output in ``tests/data/demos/``
changes only with a deliberate change of behaviour; regenerate it with
``python3 demos/<name>.py > tests/data/demos/<name>.out``.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "data" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_an_expected_output():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in EXPECTED.glob("*.out"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_expected_output(demo, tmp_path):
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (EXPECTED / f"{demo.stem}.out").read_text(encoding="utf-8")
