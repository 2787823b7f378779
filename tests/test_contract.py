"""The argument contract of every public name, held by one table.

Each row names a public callable, one of its arguments, the values that
argument's contract forbids and a call that passes one value in as that
argument.  Every forbidden value must raise a ValueError whose message
names the argument, and the row's good value must pass.  The forbidden
values follow from the kind of the argument, as ``geometry``'s argument
checks define it: a positive finite number, a nonnegative number, an
exponent, a whole count or a vertex function of shape (n,).

Every name in a module's ``__all__`` has a row, so a public name added
without one fails ``test_every_public_name_has_a_row``.  A name whose
arguments need no check has a row with no argument.
"""

import importlib
import math
import os
import pkgutil
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import spectral_limits
from conftest import custom_graph
from spectral_limits.config import ExperimentConfig, write_rows_csv
from spectral_limits.distortion import delta_p_eps_a, s_eps, \
    theorem_error_terms, v_p_eps
from spectral_limits.experiments import align_eigenspaces, \
    reference_spectrum_for
from spectral_limits.geometry import Circle, FlatTorus, Sphere, Spindle, \
    ball_volume, bishop_gromov_ratio, mc_ball_volume, model_ball_volume, \
    sphere_area, unit_ball_volume
from spectral_limits.graph import WeightedGraph, build_edges, \
    dirichlet_energy, gamma_m_eps, gamma_N_eps, laplacian_apply, \
    random_walk_matrix
from spectral_limits.interpolation import KernelContext, interpolate, \
    psi_eps, theta_eps, theta_K_eps
from spectral_limits.plotting import svg_line_chart
from spectral_limits.reference import ReferenceSpectrum, \
    appendix_ratio_check, circle_spectrum, sphere_harmonic_multiplicity, \
    sphere_spectrum, spindle_spectrum, torus_spectrum, weighted_circle_spectrum
from spectral_limits.regularity import moser_check, moser_ratio, \
    nash_diagnostic, smoothing_apply, weighted_p_norm
from spectral_limits.sampling import DensitySpec, bernstein_bound, \
    bernstein_empirical_check, derive_seeds, epsilon_schedule, sample_dataset
from spectral_limits.spectral import eigen_decompose, volume_inner, \
    volume_norm

NAN, INF = math.nan, math.inf


# ---------------------------------------------------------------------------
# the forbidden values of each kind of argument


def length():
    """A positive finite number."""
    return {"nan": NAN, "inf": INF, "-inf": -INF, "negative": -1.0,
            "zero": 0.0}


def nonnegative(finite=False):
    """A number >= 0, inf included unless ``finite``."""
    bad = {"nan": NAN, "-inf": -INF, "negative": -1.0}
    return {**bad, "inf": INF} if finite else bad


def exponent(above_two=False, inf=False):
    """p >= 1, or p > 2 with ``above_two``; inf only with ``inf``."""
    bad = {"nan": NAN, "-inf": -INF, "negative": -1.0, "zero": 0.0,
           "half": 0.5}
    if above_two:
        bad.update(one=1.0, two=2.0)
    return bad if inf else {**bad, "inf": INF}


def count(least=0, below=None):
    """A whole number >= ``least``, and < ``below`` if given."""
    bad = {"nan": NAN, "inf": INF, "-inf": -INF, "negative": -1,
           "half": least + 0.5, "fraction": least + 1.5}
    if least > 0:
        bad["below"] = least - 1
    if below is not None:
        bad["above"] = below
    return bad


def vertex_function(n):
    """An array of shape (n,)."""
    return {"short": np.ones(n - 1), "long": np.ones(n + 1),
            "matrix": np.ones((n, 2)), "scalar": 1.0}


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True)
class Row:
    name: str                       # module.name, or module.name.method
    arg: str | None = None          # None: no argument needs a check
    bad: dict | None = None         # label -> a forbidden value
    call: Callable | None = None     # call(value) passes value as ``arg``
    good: object = None


CIRCLE, SPHERE, SPINDLE = Circle(), Sphere(2), Spindle(2)
NORTH, TIP_SIDE = np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.0])
CLOUD = sample_dataset(CIRCLE, DensitySpec(), 40, seed=1)
GRAPH = gamma_N_eps(CLOUD, 0.8)
N = CLOUD.n
X = CLOUD.intrinsic[0]
ONES, RAMP = np.ones(N), np.arange(N, dtype=float)
SPEC = eigen_decompose(GRAPH, 2)
REF = circle_spectrum(1.0, 4)
CTX = KernelContext(CLOUD, 0.8)
PATH = custom_graph(3, [[0, 1], [1, 2]], np.ones(3)).upper
W_V = {label: np.array([1.0, v, 1.0])
       for label, v in nonnegative(finite=True).items()}


def cos(zi, ze):
    return np.cos(np.atleast_2d(zi)[:, 0])


def bernstein(n=10, delta=0.1, trials=100):
    return bernstein_empirical_check(CIRCLE, DensitySpec(), cos, n, delta,
                                     trials, seed=0)


TABLE = [
    # geometry
    Row("geometry.ManifoldModel"),
    Row("geometry.Circle", "radius", length(), Circle, 1.0),
    Row("geometry.Sphere", "m", count(1), Sphere, 2),
    Row("geometry.Sphere", "radius", length(), lambda v: Sphere(2, v), 1.0),
    Row("geometry.FlatTorus", "periods", length(),
        lambda v: FlatTorus((1.0, v)), 1.0),
    Row("geometry.FlatTorus", "periods", {"empty": ()}, FlatTorus, (1.0,)),
    Row("geometry.Spindle", "m", count(2), Spindle, 2),
    Row("geometry.Spindle", "c", {"nan": NAN, "inf": INF, "negative": -0.5,
                                  "zero": 0.0, "above-one": 1.5},
        lambda v: Spindle(2, v), 0.5),
    Row("geometry.unit_ball_volume", "m", count(1), unit_ball_volume, 2),
    Row("geometry.sphere_area", "m", count(0), sphere_area, 2),
    Row("geometry.model_ball_volume", "m", count(1),
        lambda v: model_ball_volume(v, 1.0, 0.3), 2),
    Row("geometry.model_ball_volume", "K", length(),
        lambda v: model_ball_volume(2, v, 0.3), 1.0),
    Row("geometry.model_ball_volume", "r", nonnegative(finite=True),
        lambda v: model_ball_volume(2, 1.0, v), 0.3),
    Row("geometry.ball_volume", "r", nonnegative(finite=True),
        lambda v: ball_volume(SPHERE, NORTH, v), 0.3),
    Row("geometry.ball_volume", "n_mc", count(1),
        lambda v: ball_volume(SPINDLE, TIP_SIDE, 0.3, n_mc=v), 100),
    Row("geometry.mc_ball_volume", "r", nonnegative(),
        lambda v: mc_ball_volume(CIRCLE, X, v, n_mc=100), 0.3),
    Row("geometry.mc_ball_volume", "n_mc", count(1),
        lambda v: mc_ball_volume(CIRCLE, X, 0.3, n_mc=v), 100),
    Row("geometry.bishop_gromov_ratio", "r", length(),
        lambda v: bishop_gromov_ratio(SPHERE, NORTH, v, 1.0), 0.3),
    Row("geometry.bishop_gromov_ratio", "K", length(),
        lambda v: bishop_gromov_ratio(SPHERE, NORTH, 0.3, v), 1.0),
    # sampling
    Row("sampling.DensitySpec", "kind", {"unknown": "bogus"}, DensitySpec,
        "uniform"),
    Row("sampling.DensitySpec", "amplitude",
        {"nan": NAN, "inf": INF, "negative": -0.1, "above-half": 0.7},
        lambda v: DensitySpec("cosine_tilt", v), 0.2),
    Row("sampling.PointCloud"),
    Row("sampling.sample_dataset", "n", count(2),
        lambda v: sample_dataset(CIRCLE, DensitySpec(), v, seed=0), 10),
    Row("sampling.epsilon_schedule", "n", count(3),
        lambda v: epsilon_schedule(v, 1), 100),
    Row("sampling.epsilon_schedule", "m",
        {**count(1), "minus-two": -2, "minus-three": -3},
        lambda v: epsilon_schedule(100, v), 1),
    Row("sampling.bernstein_bound", "sup_norm", nonnegative(),
        lambda v: bernstein_bound(v, 0.5, 100, 0.1), 1.0),
    Row("sampling.bernstein_bound", "sigma", nonnegative(),
        lambda v: bernstein_bound(1.0, v, 100, 0.1), 0.5),
    Row("sampling.bernstein_bound", "n", count(1),
        lambda v: bernstein_bound(1.0, 0.5, v, 0.1), 100),
    Row("sampling.bernstein_bound", "delta", nonnegative(),
        lambda v: bernstein_bound(1.0, 0.5, 100, v), 0.1),
    Row("sampling.bernstein_empirical_check", "n", count(2),
        lambda v: bernstein(n=v), 10),
    Row("sampling.bernstein_empirical_check", "delta", nonnegative(),
        lambda v: bernstein(delta=v), 0.1),
    Row("sampling.bernstein_empirical_check", "trials", count(100),
        lambda v: bernstein(trials=v), 100),
    Row("sampling.derive_seeds", "k", count(0),
        lambda v: derive_seeds(1, v), 2),
    # graph
    Row("graph.WeightedGraph", "epsilon", length(),
        lambda v: WeightedGraph(3, v, PATH, np.ones(3), 1.0), 1.0),
    Row("graph.WeightedGraph", "w_V", {**W_V, **vertex_function(3)},
        lambda v: WeightedGraph(3, 1.0, PATH, v, 1.0), np.ones(3)),
    Row("graph.WeightedGraph", "w_E", length(),
        lambda v: WeightedGraph(3, 1.0, PATH, np.ones(3), v), 1.0),
    Row("graph.build_edges", "eps", length(),
        lambda v: build_edges(CLOUD, v), 0.5),
    Row("graph.gamma_m_eps", "eps", length(),
        lambda v: gamma_m_eps(CLOUD, v), 0.5),
    Row("graph.gamma_N_eps", "eps", length(),
        lambda v: gamma_N_eps(CLOUD, v), 0.5),
    Row("graph.laplacian_apply", "phi", vertex_function(N),
        lambda v: laplacian_apply(GRAPH, v), ONES),
    Row("graph.random_walk_matrix", "eps", length(),
        lambda v: random_walk_matrix(CLOUD, v), 0.5),
    Row("graph.dirichlet_energy", "phi",
        {**vertex_function(N), "five": np.ones(5)},
        lambda v: dirichlet_energy(GRAPH, v), ONES),
    Row("graph.save_graph_csv"),
    # spectral
    Row("spectral.DisconnectedGraphError"),
    Row("spectral.SolverError"),
    Row("spectral.SpectralResult"),
    Row("spectral.eigen_decompose", "k", count(0, N),
        lambda v: eigen_decompose(GRAPH, v), 2),
    Row("spectral.eigen_decompose", "tol", {"nan": NAN, "inf": INF},
        lambda v: eigen_decompose(GRAPH, 2, tol=v, method="lanczos"),
        1e-10),
    Row("spectral.eigen_decompose", "method", {"unknown": "bogus"},
        lambda v: eigen_decompose(GRAPH, 2, method=v), "lanczos"),
    Row("spectral.volume_inner", "phi", vertex_function(N),
        lambda v: volume_inner(GRAPH, v, ONES), ONES),
    Row("spectral.volume_inner", "psi", vertex_function(N),
        lambda v: volume_inner(GRAPH, ONES, v), ONES),
    Row("spectral.volume_norm", "phi", vertex_function(N),
        lambda v: volume_norm(GRAPH, v), ONES),
    # regularity
    Row("regularity.RegularityCertificate"),
    Row("regularity.weighted_p_norm", "phi", vertex_function(N),
        lambda v: weighted_p_norm(GRAPH, v, 2), ONES),
    Row("regularity.weighted_p_norm", "p", exponent(inf=True),
        lambda v: weighted_p_norm(GRAPH, ONES, v), 2),
    Row("regularity.doubling_constant"),
    Row("regularity.poincare_constant"),
    Row("regularity.almost_regularity"),
    Row("regularity.smoothing_apply", "phi", vertex_function(N),
        lambda v: smoothing_apply(GRAPH, v), ONES),
    Row("regularity.nash_diagnostic", "phi", vertex_function(N),
        lambda v: nash_diagnostic(GRAPH, v, 1.0, 1.0), RAMP),
    Row("regularity.nash_diagnostic", "D", nonnegative(),
        lambda v: nash_diagnostic(GRAPH, RAMP, v, 1.0), 1.0),
    Row("regularity.nash_diagnostic", "nu", nonnegative(finite=True),
        lambda v: nash_diagnostic(GRAPH, RAMP, 1.0, v), 1.0),
    Row("regularity.moser_ratio", "k", count(0, 3),
        lambda v: moser_ratio(GRAPH, SPEC, v, 2), 1),
    Row("regularity.moser_ratio", "p", exponent(inf=True),
        lambda v: moser_ratio(GRAPH, SPEC, 1, v), 2),
    Row("regularity.moser_check", "k", count(0, 3),
        lambda v: moser_check(GRAPH, SPEC, v, 2, 1.0, 1.0), 1.0),  # whole float
    Row("regularity.moser_check", "p", exponent(inf=True),
        lambda v: moser_check(GRAPH, SPEC, 1, v, 1.0, 1.0), 2),
    Row("regularity.moser_check", "alpha_param", nonnegative(),
        lambda v: moser_check(GRAPH, SPEC, 1, 2, v, 1.0), 1.0),
    Row("regularity.moser_check", "D", nonnegative(),
        lambda v: moser_check(GRAPH, SPEC, 1, 2, 1.0, v), 1.0),
    Row("regularity.graph_diameter"),
    Row("regularity.certify"),
    # distortion
    Row("distortion.Estimate"),
    Row("distortion.v_p_eps", "p", exponent(),
        lambda v: v_p_eps(SPHERE, v, 0.3, 1.0, 10, 0), 2.0),
    Row("distortion.v_p_eps", "eps", length(),
        lambda v: v_p_eps(SPHERE, 2.0, v, 1.0, 10, 0), 0.3),
    Row("distortion.v_p_eps", "K", length(),
        lambda v: v_p_eps(SPHERE, 2.0, 0.3, v, 10, 0), 1.0),
    Row("distortion.v_p_eps", "n_mc", count(2),
        lambda v: v_p_eps(SPHERE, 2.0, 0.3, 1.0, v, 0), 10),
    Row("distortion.s_eps", "eps", length(),
        lambda v: s_eps(CIRCLE, v, 4, 10), 0.3),
    Row("distortion.s_eps", "n_mc_outer", count(2),
        lambda v: s_eps(CIRCLE, 0.3, v, 10), 4),
    Row("distortion.s_eps", "n_mc_inner", count(1),
        lambda v: s_eps(CIRCLE, 0.3, 4, v), 10),
    Row("distortion.theorem_error_terms", "m", count(1),
        lambda v: theorem_error_terms(v, 0.3, 0.1, 0.1), 2),
    Row("distortion.theorem_error_terms", "eps", length(),
        lambda v: theorem_error_terms(2, v, 0.1, 0.1), 0.3),
    Row("distortion.theorem_error_terms", "v_m2_eps", nonnegative(),
        lambda v: theorem_error_terms(2, 0.3, v, 0.1), 0.1),
    Row("distortion.theorem_error_terms", "s_eps_val", nonnegative(),
        lambda v: theorem_error_terms(2, 0.3, 0.1, v), 0.1),
    Row("distortion.delta_p_eps_a", "m", count(1),
        lambda v: delta_p_eps_a(v, 4.0, 0.3, 0.0, 0.1, 0.1), 2),
    Row("distortion.delta_p_eps_a", "p", exponent(above_two=True),
        lambda v: delta_p_eps_a(2, v, 0.3, 0.0, 0.1, 0.1), 4.0),
    Row("distortion.delta_p_eps_a", "eps", length(),
        lambda v: delta_p_eps_a(2, 4.0, v, 0.0, 0.1, 0.1), 0.3),
    Row("distortion.delta_p_eps_a", "a", nonnegative(),
        lambda v: delta_p_eps_a(2, 4.0, 0.3, v, 0.1, 0.1), 0.0),
    Row("distortion.delta_p_eps_a", "v_p_eps_val", nonnegative(),
        lambda v: delta_p_eps_a(2, 4.0, 0.3, 0.0, v, 0.1), 0.1),
    Row("distortion.delta_p_eps_a", "s_eps_val", nonnegative(),
        lambda v: delta_p_eps_a(2, 4.0, 0.3, 0.0, 0.1, v), 0.1),
    Row("distortion.run_distortion"),
    # interpolation
    Row("interpolation.KernelContext", "eps", length(),
        lambda v: KernelContext(CLOUD, v), 0.5),
    Row("interpolation.TestFunction"),
    Row("interpolation.psi_eps", "dist", nonnegative(),
        lambda v: psi_eps(v, 0.3), 0.1),
    Row("interpolation.psi_eps", "eps", length(),
        lambda v: psi_eps(0.1, v), 0.3),
    Row("interpolation.theta_n_eps"),
    Row("interpolation.theta_eps", "eps", length(),
        lambda v: theta_eps(CIRCLE, DensitySpec(), X, v), 0.3),
    Row("interpolation.theta_K_eps", "m", count(1),
        lambda v: theta_K_eps(v, 1.0, 0.3), 2),
    Row("interpolation.theta_K_eps", "K", length(),
        lambda v: theta_K_eps(2, v, 0.3), 1.0),
    Row("interpolation.theta_K_eps", "eps", length(),
        lambda v: theta_K_eps(2, 1.0, v), 0.3),
    Row("interpolation.interpolate", "phi", vertex_function(N),
        lambda v: interpolate(CTX, v, X), ONES),
    Row("interpolation.discretize"),
    Row("interpolation.EnergyComparison"),
    Row("interpolation.L2Comparison"),
    Row("interpolation.energy_comparison_report"),
    Row("interpolation.l2_norm_comparison_report"),
    # reference
    Row("reference.ReferenceSpectrum", "eigenvalues",
        {"decreasing": [1.0, 0.0], "nan": [0.0, NAN, 1.0],
         "inf": [0.0, 1.0, INF]},
        lambda v: ReferenceSpectrum(v, [None, None], "rho_vol"), [0.0, 1.0]),
    Row("reference.ReferenceSpectrum.evaluator", "k", count(0, 5),
        REF.evaluator, 1),
    Row("reference.circle_spectrum", "radius", length(),
        lambda v: circle_spectrum(v, 4), 1.0),
    Row("reference.circle_spectrum", "k_max", count(0),
        lambda v: circle_spectrum(1.0, v), 4),
    Row("reference.sphere_spectrum", "m", count(1),
        lambda v: sphere_spectrum(v, 1.0, 4), 2),
    Row("reference.sphere_spectrum", "radius", length(),
        lambda v: sphere_spectrum(2, v, 4), 1.0),
    Row("reference.sphere_spectrum", "k_max", count(0),
        lambda v: sphere_spectrum(2, 1.0, v), 4),
    Row("reference.torus_spectrum", "periods", length(),
        lambda v: torus_spectrum((1.0, v), 4), 1.0),
    Row("reference.torus_spectrum", "k_max", count(0),
        lambda v: torus_spectrum((1.0, 1.0), v), 4),
    Row("reference.weighted_circle_spectrum", "radius", length(),
        lambda v: weighted_circle_spectrum(v, DensitySpec(), 4), 1.0),
    Row("reference.weighted_circle_spectrum", "k_max", count(0),
        lambda v: weighted_circle_spectrum(1.0, DensitySpec(), v), 4),
    Row("reference.spindle_spectrum", "m", count(2),
        lambda v: spindle_spectrum(v, 0.7, 6, 4), 2),
    Row("reference.spindle_spectrum", "c", {"nan": NAN, "zero": 0.0,
                                            "above-one": 1.5},
        lambda v: spindle_spectrum(2, v, 6, 4), 0.7),
    Row("reference.spindle_spectrum", "l_max", count(0),
        lambda v: spindle_spectrum(2, 0.7, v, 4), 6),
    Row("reference.spindle_spectrum", "k_max", count(0),
        lambda v: spindle_spectrum(2, 0.7, 6, v), 4),
    Row("reference.appendix_ratio_check", "k_max", count(0, 5),
        lambda v: appendix_ratio_check(REF, v, grid=64), 4),
    Row("reference.sphere_harmonic_multiplicity", "l", count(0),
        lambda v: sphere_harmonic_multiplicity(v, 2), 3),
    Row("reference.sphere_harmonic_multiplicity", "m", count(0),
        lambda v: sphere_harmonic_multiplicity(3, v), 2),
    # config: ExperimentConfig's keys are checked against CONFIG_KEYS, which
    # the config tests walk key by key
    Row("config.CONFIG_KEYS"),
    Row("config.ExperimentConfig", "threads", count(1),
        lambda v: ExperimentConfig(threads=v), 1),
    Row("config.load_config"),
    Row("config.make_manifold"),
    Row("config.map_pairs"),
    Row("config.write_rows_csv", "rows", {"empty": []},
        lambda v: write_rows_csv(v, os.devnull), [{"n": 16}]),
    Row("config.write_run_meta"),
    # experiments
    Row("experiments.AlignmentReport"),
    Row("experiments.reference_spectrum_for", "k_max", count(0),
        lambda v: reference_spectrum_for(ExperimentConfig(), CIRCLE, v), 4),
    Row("experiments.Cell"),
    Row("experiments.map_cells"),
    Row("experiments.run_spectrum_experiment"),
    Row("experiments.align_eigenspaces", "cluster",
        {"reversed": (2, 1), "negative": (-1, 1), "fraction": (1.5, 2)},
        lambda v: align_eigenspaces(GRAPH, SPEC, REF, CLOUD, v), (1, 2)),
    Row("experiments.run_alignment"),
    Row("experiments.run_convergence_sweep"),
    Row("experiments.run_regularity"),
    Row("experiments.run_energy"),
    Row("experiments.run_moser"),
    # plotting
    Row("plotting.svg_line_chart", "series", {"empty": {}},
        lambda v: svg_line_chart(v, os.devnull, "n", "error"),
        {"k=1": ([10, 20], [0.5, 0.25])}),
]

CHECKED = [row for row in TABLE if row.arg is not None]


@pytest.mark.parametrize("row, value", [
    pytest.param(row, value, id=f"{row.name}-{row.arg}-{label}")
    for row in CHECKED for label, value in row.bad.items()])
def test_forbidden_value_is_rejected(row, value):
    with pytest.raises(ValueError, match=rf"\b{re.escape(row.arg)}\b"):
        row.call(value)


@pytest.mark.parametrize("row", CHECKED,
                         ids=[f"{row.name}-{row.arg}" for row in CHECKED])
def test_good_value_passes(row):
    row.call(row.good)


def test_every_public_name_has_a_row():
    public = set()
    for module in pkgutil.iter_modules(spectral_limits.__path__):
        names = importlib.import_module(f"spectral_limits.{module.name}")
        public |= {f"{module.name}.{n}" for n in getattr(names, "__all__", [])}
    rows = {".".join(row.name.split(".")[:2]) for row in TABLE}
    assert sorted(public - rows) == []          # a public name with no row
    assert sorted(rows - public) == []          # a row for no public name
