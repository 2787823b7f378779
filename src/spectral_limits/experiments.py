"""Experiment orchestration: spectrum runs, eigenspace alignment, sweeps.

Every report is a function of one (n, seed) ``Cell``, mapped over the
config by ``map_cells``.  A cell holds a sample, its eps-graph and its
spectrum, which is ``None`` for a disconnected graph.  Sampling seeds come
from the config, eigensolver start vectors from graph hashes, and output
rows are sorted before writing, so identical configs produce
byte-identical CSVs.
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
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .distortion import s_eps, v_p_eps
from .geometry import Circle, FlatTorus, ManifoldModel, Sphere, Spindle
from .graph import WeightedGraph, gamma_N_eps, gamma_m_eps
from .interpolation import TestFunction, energy_comparison_report, \
    l2_norm_comparison_report
from .plotting import svg_line_chart
from .reference import CLUSTER_TOL, ReferenceSpectrum, circle_spectrum, \
    sphere_spectrum, spindle_spectrum, torus_spectrum, weighted_circle_spectrum
from .regularity import MOSER_K, MOSER_P, certify, graph_diameter, \
    moser_alpha, moser_check
from .sampling import DensitySpec, PointCloud, sample_dataset, \
    epsilon_schedule
from .spectral import DisconnectedGraphError, SpectralResult, eigen_decompose, \
    volume_norm

__all__ = [
    "ExperimentConfig",
    "AlignmentReport",
    "CONFIG_KEYS",
    "load_config",
    "make_manifold",
    "reference_spectrum_for",
    "Cell",
    "map_cells",
    "run_spectrum_experiment",
    "align_eigenspaces",
    "run_alignment",
    "run_convergence_sweep",
    "run_regularity",
    "run_distortion",
    "run_energy",
    "run_moser",
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
    mesh: int = 4096
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


def reference_spectrum_for(cfg: ExperimentConfig, mfd: ManifoldModel,
                           k_max: int) -> ReferenceSpectrum:
    """Continuum reference eigenvalues 0..k_max for the configured manifold
    and density.  ``k_max`` may exceed ``cfg.k_max``: ``align`` needs the
    eigenvalue after its cluster, whose gap is checked.
    """
    if isinstance(mfd, Circle):
        if cfg.density == "uniform":
            return circle_spectrum(mfd.radius, k_max)
        return weighted_circle_spectrum(
            mfd.radius, DensitySpec(cfg.density, cfg.amplitude), k_max,
            mesh=cfg.mesh
        )
    if isinstance(mfd, Sphere):
        return sphere_spectrum(mfd.m, mfd.radius, k_max)
    if isinstance(mfd, FlatTorus):
        return torus_spectrum(mfd.periods, k_max)
    if isinstance(mfd, Spindle):
        return spindle_spectrum(
            mfd.m, mfd.c, l_max=cfg.l_max, k_max=k_max,
            mesh=min(cfg.mesh, 2048),
        )
    raise ValueError(f"no reference spectrum for {mfd.kind!r}")


# ---------------------------------------------------------------------------
# cells


@dataclass
class Cell:
    """One (n, seed) cell: a sample of size n and its eps-graph, built once,
    and the graph's spectrum, solved on request."""

    cfg: ExperimentConfig
    mfd: ManifoldModel
    dens: DensitySpec
    n: int
    seed: int

    @property
    def eps(self) -> float:
        return self.cfg.epsilon_for(self.n, self.mfd.m)

    @cached_property
    def cloud(self) -> PointCloud:
        return sample_dataset(self.mfd, self.dens, self.n, self.seed)

    @cached_property
    def graph(self) -> WeightedGraph:
        if self.cfg.graph_kind == "gamma_N":
            return gamma_N_eps(self.cloud, self.eps)
        return gamma_m_eps(self.cloud, self.eps)

    def spectrum(self, k: int) -> SpectralResult | None:
        """Eigenpairs 0..k of the graph, or ``None`` if it is disconnected.

        The one eigensolve of every report: each solves once per cell, so
        nothing is cached.
        """
        try:
            return eigen_decompose(self.graph, k)
        except DisconnectedGraphError:
            return None


def map_cells(cfg: ExperimentConfig, fn: Callable[[Cell], object]) -> list:
    """``fn(cell)`` for every (n, seed) cell of ``cfg``, in (n, seed) order.

    Runs on ``cfg.threads`` worker threads.  Each cell is made inside its
    worker and dropped when ``fn`` returns, so at most one cell per thread
    holds a sample and a graph.
    """
    mfd = make_manifold(cfg)
    dens = DensitySpec(cfg.density, cfg.amplitude)

    def work(n_seed):
        return fn(Cell(cfg, mfd, dens, *n_seed))

    pairs = [(n, seed) for n in cfg.n_list for seed in cfg.seeds]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(work, pairs))
    return [work(pair) for pair in pairs]


def _run_cells(cfg: ExperimentConfig, fn) -> list:
    """All cells' rows, sorted by whichever of n, seed, k and p they carry."""
    rows = [r for chunk in map_cells(cfg, fn) for r in chunk]
    rows.sort(key=lambda r: tuple(r[k] for k in ("n", "seed", "k", "p") if k in r))
    return rows


# ---------------------------------------------------------------------------
# spectrum experiment


def run_spectrum_experiment(cfg: ExperimentConfig):
    """Graph eigenvalues vs continuum reference, one row per (n, seed, k)."""
    ref = reference_spectrum_for(cfg, make_manifold(cfg), cfg.k_max)

    def rows(cell):
        spec = cell.spectrum(cfg.k_max)
        out = []
        for k in range(cfg.k_max + 1):
            lam_ref = float(ref.eigenvalues[k])
            lam = est = abs_err = rel = math.nan
            if spec is not None:
                lam = float(spec.eigenvalues[k])
                est = (cell.mfd.m + 2) * lam
                abs_err = abs(est - lam_ref)
                rel = abs_err / lam_ref if lam_ref > 0 else abs_err
            out.append(dict(n=cell.n, seed=cell.seed, eps=cell.eps, k=k,
                            connected=int(spec is not None), lam_graph=lam,
                            estimate=est, lam_ref=lam_ref, abs_err=abs_err,
                            rel_err=rel))
        return out

    return _run_cells(cfg, rows)


# ---------------------------------------------------------------------------
# eigenspace alignment


@dataclass
class AlignmentReport:
    """Projection and alignment residuals for one eigenvalue cluster."""

    cluster: tuple
    gamma: float
    span_width: float
    graph_eigenvalues: np.ndarray
    reference_eigenvalues: np.ndarray
    projection_residuals: np.ndarray        # ||(I - p)(f|_X)|| per reference f
    relative_residuals: np.ndarray          # divided by ||f|_X||
    norm_defects: np.ndarray                # | ||f|| - ||p(f|_X)|| |
    aligned_residuals: np.ndarray           # ||ftilde_j|_X - phi_j|| after rotation
    thm12_residuals: np.ndarray             # literal 1/n-weighted squared residuals
    rotation: np.ndarray


def _cluster_gap(lam_ref, k: int, l: int):
    """Half the reference gap around the cluster [k, l], at most 1/2, and
    the cluster's width.  The cluster must hold whole reference eigenspaces."""
    if l + 1 >= len(lam_ref):
        raise ValueError("reference spectrum too short for the cluster")
    gaps = [lam_ref[l + 1] - lam_ref[l], 1.0]
    if k > 0:
        gaps.append(lam_ref[k] - lam_ref[k - 1])
    if min(gaps) <= CLUSTER_TOL:
        raise ValueError(
            f"cluster [{k},{l}] does not match reference multiplicity "
            f"structure; reference gaps {np.diff(lam_ref).tolist()}"
        )
    return float(0.5 * min(gaps)), float(lam_ref[l] - lam_ref[k])


def align_eigenspaces(g: WeightedGraph, spectral: SpectralResult,
                      reference: ReferenceSpectrum, cloud: PointCloud,
                      cluster) -> AlignmentReport:
    """Compare graph eigenvectors with discretized reference eigenfunctions.

    Reference functions are restricted to the sample, projected onto the
    span of the graph eigenvectors of the same indices in the discrete
    weighted inner product, and finally rotated onto them by orthogonal
    Procrustes on the cross-Gram matrix.
    """
    k, l = int(cluster[0]), int(cluster[1])
    if not 0 <= k <= l:
        raise ValueError("cluster must satisfy 0 <= k <= l")
    lam_ref = reference.eigenvalues
    gamma, span_width = _cluster_gap(lam_ref, k, l)
    if l >= spectral.eigenvectors.shape[1]:
        raise ValueError("spectral result holds too few eigenvectors")

    weight = "rho2_vol" if g.kind == "gamma_N" else "rho_vol"
    dim = l - k + 1
    fmat = np.column_stack([
        np.asarray(reference.evaluator(j, weight)(cloud.intrinsic, cloud.embedded))
        for j in range(k, l + 1)
    ])
    phi = spectral.eigenvectors[:, k : l + 1]

    coeff = phi.T @ (fmat * g.w_V[:, None])        # (dim, dim): <phi_i, f_j>_w
    proj = phi @ coeff
    resid = fmat - proj
    proj_norms = np.array([volume_norm(g, resid[:, j]) for j in range(dim)])
    f_norms = np.array([volume_norm(g, fmat[:, j]) for j in range(dim)])
    rel = proj_norms / f_norms
    pnorm = np.sqrt(np.sum(coeff**2, axis=0))
    norm_defects = np.abs(1.0 - pnorm)             # continuum norms are one

    u, _, vt = np.linalg.svd(coeff.T)              # cross-Gram <f_i, phi_j>
    rot = u @ vt
    aligned = fmat @ rot
    aligned_resid = np.array(
        [volume_norm(g, aligned[:, j] - phi[:, j]) for j in range(dim)]
    )
    thm12 = np.array([
        float(np.sum((aligned[:, j] - phi[:, j]) ** 2 * g.w_V)) / g.n_vertices
        for j in range(dim)
    ])

    return AlignmentReport(
        cluster=(k, l),
        gamma=gamma,
        span_width=span_width,
        graph_eigenvalues=spectral.eigenvalues[k : l + 1].copy(),
        reference_eigenvalues=lam_ref[k : l + 1].copy(),
        projection_residuals=proj_norms,
        relative_residuals=rel,
        norm_defects=norm_defects,
        aligned_residuals=aligned_resid,
        thm12_residuals=thm12,
        rotation=rot,
    )


def run_alignment(cfg: ExperimentConfig):
    """Alignment rows per (n, seed) for the configured cluster.

    The cluster must fit the reference's multiplicities and have an
    eigenfunction in the graph's weight at every index; both are checked
    before any cell is made.  With no cluster configured, the cluster is
    the reference's first non-constant one, found by growing the reference
    until a later eigenvalue bounds that cluster from above.
    """
    mfd = make_manifold(cfg)
    ref = reference_spectrum_for(cfg, mfd,
                                 max(cfg.k_max, max(cfg.cluster or [1]) + 1))
    while not cfg.cluster and len(ref.clusters()) < 3:
        # the reference may outgrow the smallest n, which bounds cfg.k_max
        ref = reference_spectrum_for(cfg, mfd, 2 * len(ref.eigenvalues))
    cluster = cfg.cluster or ref.clusters()[1]
    k, l = int(cluster[0]), int(cluster[1])
    gamma, span_width = _cluster_gap(ref.eigenvalues, k, l)
    weight = "rho2_vol" if cfg.graph_kind == "gamma_N" else "rho_vol"
    for j in range(k, l + 1):
        try:
            ref.evaluator(j, weight)
        except ValueError as exc:
            raise ValueError(f"cluster [{k},{l}] cannot be aligned on the "
                             f"{mfd.kind} with m = {mfd.m}: {exc}") from None

    columns = ("proj_residual", "rel_residual", "norm_defect",
               "aligned_residual", "thm12_residual")

    def rows(cell):
        spec = cell.spectrum(max(cfg.k_max, l))
        if spec is None:
            measured = np.full((len(columns), l - k + 1), math.nan)
        else:
            rep = align_eigenspaces(cell.graph, spec, ref, cell.cloud, (k, l))
            measured = (rep.projection_residuals, rep.relative_residuals,
                        rep.norm_defects, rep.aligned_residuals,
                        rep.thm12_residuals)
        return [dict(
            n=cell.n, seed=cell.seed, eps=cell.eps, k=k + j,
            connected=int(spec is not None), gamma=gamma,
            span_width=span_width,
            **{col: float(v[j]) for col, v in zip(columns, measured)},
        ) for j in range(l - k + 1)]

    return _run_cells(cfg, rows)


# ---------------------------------------------------------------------------
# convergence sweep


def run_convergence_sweep(cfg: ExperimentConfig, svg_path=None):
    """Medians over seeds per n and the log-log error slope per k."""
    if len(cfg.n_list) < 3 or len(cfg.seeds) < 3:
        raise ValueError("sweep needs at least 3 n values and 3 seeds")
    rows = run_spectrum_experiment(cfg)
    summary = []
    series = {}
    for k in range(1, cfg.k_max + 1):
        ns, meds = [], []
        for n in cfg.n_list:
            errs = [r["abs_err"] for r in rows
                    if r["k"] == k and r["n"] == n and r["connected"]]
            if errs:
                ns.append(n)
                meds.append(float(np.median(errs)))
        if not meds:        # no connected cell at this k
            continue
        slope = _loglog_slope(ns, meds)
        for n, med in zip(ns, meds):
            summary.append(dict(k=k, n=n, median_abs_err=med, slope=slope))
        if all(m > 0 for m in meds):
            series[f"k={k}"] = (ns, meds)
    summary.sort(key=lambda r: (r["k"], r["n"]))
    if svg_path is not None and series:
        svg_line_chart(series, svg_path, xlabel="n", ylabel="median |error|")
    return summary


def _loglog_slope(ns, errs) -> float:
    pts = [(math.log(n), math.log(e)) for n, e in zip(ns, errs) if e > 0]
    if len(pts) < 2:
        return math.nan
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# thin orchestration reports


def run_regularity(cfg: ExperimentConfig):
    def rows(cell):
        spec = cell.spectrum(cfg.k_max)
        if spec is None:
            q = p = r = math.nan
            table = [(k, pp, math.nan) for k in MOSER_K if k <= cfg.k_max
                     for pp in MOSER_P]
        else:
            cert = certify(cell.graph, spec, seed=cell.seed)
            q, p, r, table = cert.Q, cert.P, cert.R, cert.moser_table
        return [dict(n=cell.n, seed=cell.seed, eps=cell.eps,
                     connected=int(spec is not None), Q=q, P=p, sigma=1.0,
                     R=r, **{f"moser_k{k}_p{pp}": v for (k, pp, v) in table})]

    return _run_cells(cfg, rows)


def run_distortion(cfg: ExperimentConfig):
    def rows(cell):
        mfd, eps = cell.mfd, cell.eps
        v = v_p_eps(mfd, cfg.p, eps, cfg.K, cfg.mc_outer, cell.seed)
        s = s_eps(mfd, eps, n_mc_outer=max(cfg.mc_outer // cfg.mc_inner, 50),
                  n_mc_inner=cfg.mc_inner, seed=cell.seed)
        return [dict(n=cell.n, seed=cell.seed, eps=eps,
                     v_p_eps=v.value, v_stderr=v.stderr,
                     s_eps=s.value, s_stderr=s.stderr)]

    return _run_cells(cfg, rows)


def default_test_function(mfd: ManifoldModel, dens: DensitySpec) -> TestFunction:
    """A smooth built-in test function with analytic reference integrals."""
    if isinstance(mfd, Circle) and dens.kind == "uniform":
        R = mfd.radius
        # f = cos(theta): |grad f|^2 = sin^2/R^2, rho = 1/(2 pi R)
        return TestFunction(
            name="cos_theta",
            values=lambda zi, ze: np.cos(np.atleast_2d(zi)[:, 0]),
            grad_sq_rho2=1.0 / (4.0 * math.pi * R**3),
            sq_rho=0.5,
            sq_rho2=1.0 / (4.0 * math.pi * R),
        )
    if isinstance(mfd, Sphere) and mfd.m == 2 and dens.kind == "uniform":
        R = mfd.radius
        # f = z/R on S^2: int f^2 dvol = vol/3, int |grad f|^2 dvol = (2/R^2)(vol/3)
        vol = mfd.total_volume
        return TestFunction(
            name="z_coordinate",
            values=lambda zi, ze: np.atleast_2d(ze)[:, 2] / R,
            grad_sq_rho2=(2.0 / R**2) * (1.0 / 3.0) / vol,
            sq_rho=1.0 / 3.0,
            sq_rho2=1.0 / (3.0 * vol),
        )
    if isinstance(mfd, FlatTorus) and dens.kind == "uniform":
        p0 = mfd.periods[0]
        vol = mfd.total_volume
        w = 2.0 * math.pi / p0
        return TestFunction(
            name="cos_first_axis",
            values=lambda zi, ze: np.cos(w * np.atleast_2d(zi)[:, 0]),
            grad_sq_rho2=w**2 * 0.5 / vol,
            sq_rho=0.5,
            sq_rho2=0.5 / vol,
        )
    raise ValueError(f"no built-in test function for {mfd.kind}/{dens.kind}")


def run_energy(cfg: ExperimentConfig):
    def rows(cell):
        f = default_test_function(cell.mfd, cell.dens)
        er = energy_comparison_report(cell.graph, cell.cloud, f)
        l2 = l2_norm_comparison_report(cell.graph, cell.cloud, f)
        return [dict(
            n=cell.n, seed=cell.seed, eps=cell.eps,
            energy_discrete=er.discrete, energy_continuous=er.continuous,
            energy_difference=er.difference,
            l2_plain_discrete=l2.plain_discrete,
            l2_plain_continuous=l2.plain_continuous,
            l2_degree_discrete=l2.degree_discrete,
            l2_degree_continuous=l2.degree_continuous,
        )]

    return _run_cells(cfg, rows)


def run_moser(cfg: ExperimentConfig):
    kp = [(k, p) for k in range(1, cfg.k_max + 1) for p in MOSER_P]

    def rows(cell):
        g, spec = cell.graph, cell.spectrum(cfg.k_max)
        if spec is None:
            measured = [(math.nan, math.nan)] * len(kp)
        else:
            alpha, D = moser_alpha(g), graph_diameter(g)
            measured = [moser_check(g, spec, k, p, alpha_param=alpha, D=D)
                        for k, p in kp]
        return [dict(n=cell.n, seed=cell.seed, eps=cell.eps, k=k,
                     p=(p if p != math.inf else -1),
                     connected=int(spec is not None),
                     ratio=ratio, bound_shape=shape)
                for (k, p), (ratio, shape) in zip(kp, measured)]

    return _run_cells(cfg, rows)


# ---------------------------------------------------------------------------
# output


def _format_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_rows_csv(rows, path):
    """Write nonempty dict rows that share one key set, in the first row's
    key order; floats at 17 significant digits."""
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
