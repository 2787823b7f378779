"""Experiment configs, the one (n, seed) loop and the run's output files.

A config is a checked ``ExperimentConfig``, read from TOML by
``load_config``.  ``map_pairs`` maps a function over the config's (n, seed)
pairs; every report runs on it, through ``experiments.map_cells`` when it
needs a sample and its eps-graph.  Rows are sorted before writing, so
identical configs produce byte-identical CSVs.  This module needs neither
a graph nor an eigensolver.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import tomllib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .geometry import Circle, FlatTorus, ManifoldModel, Sphere, Spindle
from .sampling import DensitySpec, epsilon_schedule

__all__ = [
    "CONFIG_KEYS",
    "ExperimentConfig",
    "load_config",
    "make_manifold",
    "map_pairs",
    "write_rows_csv",
    "write_run_meta",
]

ALL_REPORTS = (
    "sample", "graph", "spectrum", "align", "regularity", "distortion",
    "energy", "moser", "sweep",
)


# ---------------------------------------------------------------------------
# configuration

# One row per config-file key: the ExperimentConfig field it sets, the type
# of its value and the bound on each value (on each item, for a list).  A
# bound is a tuple of choices or comparisons joined by " and ".
# docs/formats.md prints the same table, and a test holds the two equal.
CONFIG_KEYS = (
    ("manifold", "manifold", "string", ("circle", "sphere", "flat_torus", "spindle")),
    ("radius", "radius", "float", "> 0"),
    ("m", "m", "int", ">= 1"),
    ("periods", "periods", "nonempty list of float", "> 0"),
    ("warp", "warp", "float", "> 0 and <= 1"),
    ("density", "density", "string", ("uniform", "cosine_tilt")),
    ("amplitude", "amplitude", "float", ">= 0 and <= 0.5"),
    ("n", "n_list", "nonempty list of int", ">= 16"),
    ("seeds", "seeds", "nonempty list of int", ">= 0"),
    ("eps", "eps_rule", '"schedule" or float', "> 0"),
    ("graph", "graph_kind", "string", ("gamma_N", "gamma_m")),
    ("k_max", "k_max", "int", ">= 0"),
    ("reports", "reports", "list of string", ALL_REPORTS),
    ("cluster", "cluster", "list of int", ">= 0"),
    ("mesh", "mesh", "int", ">= 512"),
    ("l_max", "l_max", "int", ">= 0"),
    ("p", "p", "float", ">= 1"),
    ("K", "K", "float", "> 0"),
    ("mc_outer", "mc_outer", "int", ">= 2"),
    ("mc_inner", "mc_inner", "int", ">= 1"),
    ("threads", "threads", "int", ">= 1"),
)

_TYPES = {"int": (int, np.integer), "string": (str,),
          "float": (int, float, np.integer, np.floating)}
_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _bound_text(bound) -> str:
    if isinstance(bound, str):
        return bound
    return "one of " + ", ".join(f'"{choice}"' for choice in bound)


def _meets(kind: str, bound, value) -> bool:
    """``value`` is of type ``kind`` within ``bound``, each item of a list."""
    item = kind.split()[-1]               # "nonempty list of int": "int"
    if "list" not in kind:
        value = [value]
    elif not isinstance(value, (list, tuple)) or (
            "nonempty" in kind and not value):
        return False
    # bool is a subclass of int, but true is no number
    if not all(isinstance(v, _TYPES[item]) and not isinstance(v, bool)
               for v in value):
        return False
    if isinstance(bound, tuple):
        return all(v in bound for v in value)
    comparisons = [part.split() for part in bound.split(" and ")]
    return all(math.isfinite(v) and _COMPARE[op](v, float(limit))
               for v in value for op, limit in comparisons)


@dataclass
class ExperimentConfig:
    manifold: str = "circle"
    radius: float = 1.0
    m: int = 2
    periods: Sequence[float] = (1.0, 1.0)
    warp: float = 1.0 / math.sqrt(2.0)
    density: str = "uniform"
    amplitude: float = 0.0
    n_list: Sequence[int] = (500,)
    seeds: Sequence[int] = (1,)
    eps_rule: object = "schedule"     # "schedule" or a fixed float
    graph_kind: str = "gamma_N"
    k_max: int = 3
    reports: Sequence[str] = ALL_REPORTS
    cluster: Sequence[int] = ()      # empty: the first non-constant cluster
    mesh: int = 4096                 # no effect; kept so old configs load
    l_max: int = 6
    p: float = 4.0
    K: float = 1.0
    mc_outer: int = 20000
    mc_inner: int = 2000
    threads: int = 1
    raw_text: str = ""

    def __post_init__(self):
        for key, field, kind, bound in CONFIG_KEYS:
            value = getattr(self, field)
            if key == "eps" and value == "schedule":
                continue
            if not _meets(kind, bound, value):
                items = f", all {key} values" if "list" in kind else ""
                raise ValueError(f"{key} must be {kind}{items} "
                                 f"{_bound_text(bound)}, got {value!r}")
        # the rules that tie one key to another
        smallest = min(self.n_list)
        if self.k_max >= smallest:
            raise ValueError(f"k_max must be below the smallest n, "
                             f"{smallest}, got {self.k_max}")
        c = list(self.cluster)
        if c and not (len(c) == 2 and c[0] <= c[1] < smallest):
            raise ValueError(f"cluster must be empty or two integers "
                             f"k <= l below the smallest n, {smallest}, "
                             f"got {c!r}")
        if self.manifold == "spindle" and self.m < 2:
            raise ValueError(f"m must be >= 2 on the spindle, got {self.m}")
        if self.density != "uniform" and self.manifold != "circle":
            raise ValueError(f'density must be "uniform" on the '
                             f'{self.manifold}, got {self.density!r}')
        if self.mesh % 4:
            raise ValueError(f"mesh must be divisible by 4, got {self.mesh}")

    def epsilon_for(self, n: int, m: int) -> float:
        if self.eps_rule == "schedule":
            return epsilon_schedule(n, m)
        return float(self.eps_rule)


def load_config(path) -> ExperimentConfig:
    """Read a TOML config file.  Every key is a row of ``CONFIG_KEYS``; a
    scalar given for a list key is a one-item list.  TOML text is UTF-8,
    whatever the locale."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    rows = {key: (field, kind) for key, field, kind, _ in CONFIG_KEYS}
    fields = {}
    for key, value in tomllib.loads(text).items():
        if key not in rows:
            raise ValueError(f"unknown config key {key!r}")
        field, kind = rows[key]
        wrap = "list" in kind and not isinstance(value, list)
        fields[field] = [value] if wrap else value
    return ExperimentConfig(raw_text=text, **fields)


def make_manifold(cfg: ExperimentConfig) -> ManifoldModel:
    if cfg.manifold == "circle":
        return Circle(cfg.radius)
    if cfg.manifold == "sphere":
        return Sphere(cfg.m, cfg.radius)
    if cfg.manifold == "flat_torus":
        return FlatTorus(cfg.periods)
    return Spindle(cfg.m, cfg.warp)     # CONFIG_KEYS admits no other manifold


# ---------------------------------------------------------------------------
# the (n, seed) loop


def map_pairs(cfg: ExperimentConfig, fn: Callable) -> list:
    """``fn(mfd, dens, n, seed)`` for every (n, seed) pair of ``cfg``, in
    (n, seed) order, on ``cfg.threads`` worker threads."""
    mfd = make_manifold(cfg)
    dens = DensitySpec(cfg.density, cfg.amplitude)

    def work(n_seed):
        return fn(mfd, dens, *n_seed)

    pairs = [(n, seed) for n in cfg.n_list for seed in cfg.seeds]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(work, pairs))
    return [work(pair) for pair in pairs]


def _sorted_rows(chunks) -> list:
    """The rows of every chunk, sorted by whichever of n, seed, k and p
    they carry."""
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: tuple(r[k] for k in ("n", "seed", "k", "p") if k in r))
    return rows


# ---------------------------------------------------------------------------
# output


def _format_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_rows_csv(rows, path):
    """Write nonempty dict rows that share one key set, in the first row's
    key order; floats at 17 significant digits."""
    if not rows:
        raise ValueError("rows must hold at least one row, got none")
    header = list(rows[0])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(_format_cell(r[h]) for h in header) + "\n")


def write_run_meta(cfg: ExperimentConfig, out_dir, reports_written):
    """Write run_meta.json; written files are listed relative to ``out_dir``."""
    meta = {
        "tool": "spectral-limits",
        "version": __version__,
        "config_hash": hashlib.sha256(cfg.raw_text.encode()).hexdigest(),
        "seeds": list(cfg.seeds),
        "n": list(cfg.n_list),
        "reports": [os.path.relpath(p, out_dir) for p in reports_written],
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
