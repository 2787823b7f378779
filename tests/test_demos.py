"""Every script in ``demos/`` runs to completion.

Each demo runs in a child ``python`` with ``src/`` on the path, BLAS pinned
to one thread, and a temporary working directory, so a demo that writes a
file leaves nothing in the source tree.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli_golden import PINNED_THREADS, SRC

DEMOS = sorted((Path(SRC).parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
