"""Smoke test: every script under ``examples/`` runs to completion.

The examples drive the public ``SGraph`` and ``VersionedStore`` verbs end
to end; each runs in a fresh interpreter against ``src/``, from an empty
working directory, and must exit 0.
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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=110,
    )
    assert done.returncode == 0, done.stderr[-2000:]
