"""Graph commands never load ``scipy.integrate`` or ``scipy.optimize``.

Quadrature serves only V_K and the kernel masses theta, so ``spectrum`` and
``regularity`` must not pay for the import on any model, the spindle
included: its volume and sampler are incomplete beta functions.  The check
runs in a child ``python``: the pytest process has already imported
``scipy.integrate`` through other test modules.  The same child then takes
a comparison volume V_K, a quadrature, so the check cannot pass because the
modules never show up in ``sys.modules``.
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
SPINDLE = 'manifold = "spindle"\\nm = 3\\nn = [200]\\nseeds = [1]\\nk_max = 2\\n'
QUADRATURE = ("scipy.integrate", "scipy.optimize")


def loaded():
    return [name for name in QUADRATURE if name in sys.modules]


report = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, command, text in (("spectrum", "spectrum", CIRCLE),
                                ("regularity", "regularity", SPHERE),
                                ("spectrum-spindle3", "spectrum", SPINDLE)):
        cfg = os.path.join(tmp, name + ".toml")
        with open(cfg, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, name)
        assert main([command, "--config", cfg, "--out", out]) == 0
        report[name] = loaded()

from spectral_limits.geometry import Spindle, model_ball_volume

Spindle(3)
report["Spindle(3)"] = loaded()
model_ball_volume(2, 1.0, 0.5)
report["model_ball_volume"] = loaded()
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
    for run in ("spectrum", "regularity", "spectrum-spindle3", "Spindle(3)"):
        assert report[run] == [], run
    # positive control: the first quadrature does load both
    assert report["model_ball_volume"] == ["scipy.integrate", "scipy.optimize"]
