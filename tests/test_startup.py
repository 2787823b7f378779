"""No command or model integral loads ``scipy.integrate`` or ``scipy.optimize``,
only the integrals build the Gauss-Legendre rule, and ``distortion`` loads
none of the graph stack.

The spindle's volume and sampler are incomplete beta functions, and the
comparison volume V_K and the kernel masses theta take one fixed
Gauss-Legendre rule, so none of the nine commands, on any model, and none
of those integrals pays for either import.  The rule itself is built on
first use: the child counts the calls of numpy's ``leggauss``, from the
import of the CLI on, and clears the rule's cache after each run.  Only
``distortion``, through V_K, and the model integrals build it, once per
run.  The check runs in a child ``python``: the pytest process has
already imported ``scipy.integrate`` through other test modules.  The
same child then imports ``scipy.integrate`` itself, so the check cannot
pass because the modules never show up in ``sys.modules``.

A command imports only the modules its report runs, and the package's
names resolve on first access.  So ``distortion``, whose integrals need
no graph, loads neither ``scipy.sparse``, ``scipy.spatial`` nor
``scipy.linalg``.  That check needs a fresh child: the first child has run
``graph`` by then.  A fresh ``graph`` child is the positive control.

Only an eigensolve whose products split into row parts starts the
product pool's workers, so a fresh ``distortion`` child and a fresh small
``spectrum`` child each end with the main thread as their only thread.
The workers are not daemon threads: a fresh child that forces a split ends
with one worker beside the main thread, and still exits.
"""

import json
import os
import subprocess
import sys

from test_cli_golden import PINNED_THREADS, SRC

CHILD = '''
import json, os, sys, tempfile
import numpy as np

RULES = []
leggauss = np.polynomial.legendre.leggauss


def counted(deg):
    RULES.append(deg)
    return leggauss(deg)


np.polynomial.legendre.leggauss = counted
from spectral_limits import geometry
from spectral_limits.cli import main

CIRCLE = 'manifold = "circle"\\nn = [64]\\nseeds = [1]\\nk_max = 2\\n'
SPHERE = 'manifold = "sphere"\\nm = 2\\nn = [300]\\nseeds = [4]\\nk_max = 3\\n'
SPINDLE = 'manifold = "spindle"\\nm = 3\\nn = [200]\\nseeds = [1]\\nk_max = 2\\n'
SPINDLE2 = ('manifold = "spindle"\\nm = 2\\nn = [200]\\nseeds = [1]\\n'
            'mc_outer = 4\\nmc_inner = 50\\n')
SWEEP = ('manifold = "circle"\\nn = [64, 96, 128]\\nseeds = [1, 2, 3]\\n'
         'k_max = 2\\n')
QUADRATURE = ("scipy.integrate", "scipy.optimize")


def loaded():
    """The quadrature modules loaded, and the rules built since the last
    call, with the rule's cache cleared for the next run."""
    rules = list(RULES)
    RULES.clear()
    geometry._gauss_rule.cache_clear()
    return [name for name in QUADRATURE if name in sys.modules], rules


report = {"import": loaded()}
with tempfile.TemporaryDirectory() as tmp:
    for name, command, text in (("sample", "sample", CIRCLE),
                                ("graph", "graph", CIRCLE),
                                ("spectrum", "spectrum", CIRCLE),
                                ("align", "align", CIRCLE),
                                ("regularity", "regularity", SPHERE),
                                ("spectrum-spindle3", "spectrum", SPINDLE),
                                ("distortion", "distortion", SPINDLE2),
                                ("energy", "energy", SPHERE),
                                ("moser", "moser", CIRCLE),
                                ("sweep", "sweep", SWEEP)):
        cfg = os.path.join(tmp, name + ".toml")
        with open(cfg, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, name)
        assert main([command, "--config", cfg, "--out", out]) == 0
        assert len(os.listdir(out)) > 1, name
        report[name] = loaded()

from spectral_limits.geometry import Circle, Sphere, Spindle, \\
    bishop_gromov_ratio, model_ball_volume
from spectral_limits.interpolation import theta_K_eps, theta_eps
from spectral_limits.sampling import DensitySpec

Spindle(3)
report["Spindle(3)"] = loaded()
model_ball_volume(2, 1.0, 0.5)
bishop_gromov_ratio(Sphere(2), np.array([0.0, 0.0, 1.0]), 0.5, 1.0)
theta_eps(Circle(), DensitySpec("cosine_tilt", amplitude=0.3), [0.5], 0.2)
theta_eps(Sphere(2), DensitySpec("uniform"), [0.0, 0.0, 1.0], 0.7)
theta_K_eps(2, 1.0, 0.5)
report["model integrals"] = loaded()

import scipy.integrate

report["import scipy.integrate"] = loaded()[0]
print(json.dumps(report))
'''

RUNS = ("import", "sample", "graph", "spectrum", "align", "regularity",
        "spectrum-spindle3", "distortion", "energy", "moser", "sweep",
        "Spindle(3)", "model integrals")
# the runs that integrate: each builds the 64-point rule once
RULE_RUNS = ("distortion", "model integrals")


def run_child(*args):
    """Run ``python -W error -c`` with ``args`` in a fresh child, on pinned
    threads; return its stdout."""
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_and_model_integrals_skip_quadrature_imports():
    report = json.loads(run_child(CHILD))
    assert list(report) == [*RUNS, "import scipy.integrate"]
    for run in RUNS:
        modules, rules = report[run]
        assert modules == [], run
        assert rules == ([64] if run in RULE_RUNS else []), run
    # positive control: the import itself does load both
    assert report["import scipy.integrate"] == ["scipy.integrate",
                                                "scipy.optimize"]


# run one command in a fresh child, which reports the package's submodules
# loaded by ``import spectral_limits`` and after the run, which of the
# modules named after the config text are loaded after the run, and the
# number of live threads after the run
FRESH = '''
import json, os, sys, tempfile, threading

import spectral_limits

report = {"package": sorted(m for m in sys.modules
                            if m.startswith("spectral_limits."))}
from spectral_limits.cli import main

command, text, watched = sys.argv[1], sys.argv[2], sys.argv[3:]
with tempfile.TemporaryDirectory() as tmp:
    cfg = os.path.join(tmp, "cfg.toml")
    with open(cfg, "w") as fh:
        fh.write(text)
    out = os.path.join(tmp, "out")
    assert main([command, "--config", cfg, "--out", out]) == 0
    assert len(os.listdir(out)) > 1, command
report["run"] = sorted(m for m in sys.modules
                       if m.startswith("spectral_limits."))
report["watched"] = [m for m in watched if m in sys.modules]
report["threads"] = threading.active_count()
print(json.dumps(report))
'''

GRAPH_STACK = ("scipy.sparse", "scipy.spatial", "scipy.linalg")
SPINDLE = ('manifold = "spindle"\nm = 2\nn = [200]\nseeds = [1]\n'
           'mc_outer = 4\nmc_inner = 50\n')
CIRCLE = 'manifold = "circle"\nn = [64]\nseeds = [1]\nk_max = 2\n'
# Lanczos cells far below the entries at which a product splits
CIRCLE_LANCZOS = ('manifold = "circle"\nn = [600, 1000]\nseeds = [1]\n'
                  'k_max = 3\n')


def fresh_run(command, text):
    return json.loads(run_child(FRESH, command, text, *GRAPH_STACK))


def test_distortion_runs_without_the_graph_stack():
    report = fresh_run("distortion", SPINDLE)
    # the package itself loads no submodule: its names resolve on access
    assert report["package"] == []
    assert report["run"] == ["spectral_limits.cli", "spectral_limits.config",
                             "spectral_limits.distortion",
                             "spectral_limits.geometry",
                             "spectral_limits.sampling"]
    assert report["watched"] == []
    assert report["threads"] == 1
    # positive control: a graph command in a fresh child loads all three
    assert fresh_run("graph", CIRCLE)["watched"] == list(GRAPH_STACK)


def test_small_spectrum_starts_no_helper_thread():
    report = fresh_run("spectrum", CIRCLE_LANCZOS)
    assert "spectral_limits.spectral" in report["run"]
    assert report["threads"] == 1


# every product of circle n = 2000 split into two parts, on two CPUs
POOL_EXIT = '''
import threading

from spectral_limits import spectral
from spectral_limits.geometry import Circle
from spectral_limits.graph import gamma_N_eps
from spectral_limits.sampling import DensitySpec, epsilon_schedule, \\
    sample_dataset

spectral._part_count = lambda nnz: 2
spectral._CPUS = 2
cloud = sample_dataset(Circle(), DensitySpec("uniform"), 2000, seed=1)
spectral.eigen_decompose(gamma_N_eps(cloud, epsilon_schedule(2000, 1)), 3)
print(threading.active_count())
'''


def test_exit_with_a_live_pool():
    # the pool's one worker is alive at exit, and the child still ends
    assert run_child(POOL_EXIT).split() == ["2"]
