"""Smoke test: every script under ``examples/`` runs to completion.

The examples drive the public ``SGraph`` and ``VersionedStore`` verbs end
to end; each runs in a fresh interpreter against ``src/``, from an empty
working directory that is also its ``TMPDIR``, must exit 0 and must leave
that directory empty.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=110,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_streaming_dashboard_prints_a_full_row_per_round(tmp_path):
    """2 000 updates in rounds of 200 print ten rows, every one with all
    six columns filled, then the overall totals."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "streaming_dashboard.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=110,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["round", "updates", "upd", "k/s", "queries",
                                "q", "mean", "ms", "q", "max", "ms"]
    rows = [line.split() for line in lines[1:11]]
    assert [row[0] for row in rows] == [str(n) for n in range(10)]
    for row in rows:
        assert len(row) == 6
        assert row[1] == "200" and row[3] == "16"
        assert float(row[5]) >= float(row[4]) > 0
    assert "2000 updates at" in done.stdout
    assert "160 queries:" in done.stdout
