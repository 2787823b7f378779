"""The benchmark's workloads: one CLI command each, on a config made from a seed.

Each workload is dominated by a different layer group, so a change to graph
assembly, to the spindle geodesic or to the regularity certificate has one
workload that shows it and two that should not move:

- ``sweep-circle``: the convergence sweep users run most.  The circle's dense
  eps-graphs split the time between graph assembly and the Lanczos solve.
- ``regularity-sphere``: the regularity certificate on S^2.  ``certify``
  (doubling, Poincare, Moser with its dense hop matrix) is nearly all of it.
  n = 1500 takes every vertex as a centre (as every n <= 2000 does), n = 4000
  samples 200 centres and is the largest n with an exact diameter.  n = 1500
  rather than 2000 halves that cell's time, so a benchmark run gets more
  CLI runs to take the median of.
- ``distortion-spindle``: the two distortion integrals on the spindle; no
  graph, no eigensolve.  The scalar Clairaut geodesic solver is nearly all of
  it.  ``mc_outer`` is cut from the shipped 20000, which takes hours.  Each
  benchmark run also runs, untimed, the config of a seed whose estimates are
  recorded in ``distortion_reference.json``, so that every run checks the
  estimators against recorded values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                      # the CLI subcommand
    settings: Callable[[int], dict]   # workload seed -> config keys and values
    cells: Callable[[int], list]      # workload seed -> [(n, seed), ...]
    cell_opener: str                  # the span that starts each (n, seed) cell
    check_seed: int | None = None     # a recorded seed, run once untimed per
                                      # benchmark run to check the outputs


SWEEP_N = (2000, 4000, 8000)
SWEEP_K_MAX = 6
REGULARITY_N = (1500, 4000)
DISTORTION_N = 2000
DISTORTION_MC_OUTER = 5
DISTORTION_MC_INNER = 2000


def _sweep_seeds(s):
    return [s, s + 1, s + 2]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sweep-circle",
            command="sweep",
            settings=lambda s: dict(
                manifold="circle", density="uniform", n=list(SWEEP_N),
                seeds=_sweep_seeds(s), eps="schedule", graph="gamma_N",
                k_max=SWEEP_K_MAX, reports=["sweep"],
            ),
            cells=lambda s: [(n, t) for n in SWEEP_N for t in _sweep_seeds(s)],
            cell_opener="sampling.sample_dataset",
        ),
        Workload(
            name="regularity-sphere",
            command="regularity",
            settings=lambda s: dict(
                manifold="sphere", m=2, density="uniform", n=list(REGULARITY_N),
                seeds=[s], eps="schedule", graph="gamma_N", k_max=3,
                reports=["regularity"],
            ),
            cells=lambda s: [(n, s) for n in REGULARITY_N],
            cell_opener="sampling.sample_dataset",
        ),
        Workload(
            name="distortion-spindle",
            command="distortion",
            settings=lambda s: dict(
                manifold="spindle", m=2, n=[DISTORTION_N],
                seeds=[s], eps="schedule", p=4.0, K=1.0,
                mc_outer=DISTORTION_MC_OUTER, mc_inner=DISTORTION_MC_INNER,
                reports=["distortion"],
            ),
            cells=lambda s: [(DISTORTION_N, s)],
            cell_opener="distortion.v_p_eps",
            check_seed=0,
        ),
    )
}


def _fmt(v) -> str:
    if isinstance(v, str):
        return f'"{v}"'
    if isinstance(v, list):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return repr(v)


def format_config(items: dict) -> str:
    """Config-file text for ``items``, one ``key = value`` line each."""
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in items.items())


def config_text(workload: Workload, seed: int, setup: bool = False) -> str:
    """The config file the CLI receives.  With ``setup`` the report list is
    empty, so the CLI only starts, loads the config, writes run_meta.json and
    exits: that run measures set-up time."""
    items = workload.settings(seed)
    if setup:
        items["reports"] = []
    return format_config(items)
