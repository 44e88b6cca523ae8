"""Smoke test: every narrative demo runs to completion."""

from __future__ import annotations

import os
import runpy
from pathlib import Path

import pytest

import stopgame

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch):
    # the CLI demo starts `python -m stopgame.cli`; it must import this package
    package_root = str(Path(stopgame.__file__).resolve().parent.parent)
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    )
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
