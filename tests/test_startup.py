"""Graph commands never load ``scipy.integrate`` or ``scipy.optimize``.

Quadrature serves only V_K, the spindle, sphere volumes for m >= 3 and the
kernel masses theta, so ``spectrum`` and ``regularity`` must not pay for
the import.  The check runs in a child ``python``: the pytest process has
already imported ``scipy.integrate`` through other test modules.  The same
child then builds a spindle, whose volume is a quadrature, so the check
cannot pass because the modules never show up in ``sys.modules``.
"""

import json
import os
import subprocess
import sys

from test_cli_golden import PINNED_THREADS, SRC

CHILD = '''
import json, os, sys, tempfile
from spectral_limits.cli import main

CIRCLE = 'manifold = "circle"\\nn = [64]\\nseeds = [1]\\nk_max = 2\\n'
SPHERE = 'manifold = "sphere"\\nm = 2\\nn = [300]\\nseeds = [4]\\nk_max = 3\\n'
QUADRATURE = ("scipy.integrate", "scipy.optimize")


def loaded():
    return [name for name in QUADRATURE if name in sys.modules]


report = {}
with tempfile.TemporaryDirectory() as tmp:
    for command, text in (("spectrum", CIRCLE), ("regularity", SPHERE)):
        cfg = os.path.join(tmp, command + ".toml")
        with open(cfg, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, command)
        assert main([command, "--config", cfg, "--out", out]) == 0
        report[command] = loaded()

from spectral_limits.geometry import Spindle

Spindle(2)
report["Spindle(2)"] = loaded()
print(json.dumps(report))
'''


def test_graph_commands_skip_quadrature_imports():
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", CHILD],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["spectrum"] == []
    assert report["regularity"] == []
    # positive control: the first quadrature does load both
    assert report["Spindle(2)"] == ["scipy.integrate", "scipy.optimize"]
