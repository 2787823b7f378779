"""Spectral approximation of weighted manifold Laplacians from point samples.

The package builds epsilon-neighborhood graphs on i.i.d. samples of model
manifolds (circle, sphere, flat torus, spindle), solves the weighted graph
Laplacian eigenproblem, and compares spectra and eigenspaces against
continuum references, together with the regularity and distortion
quantities that control the approximation error.

The names below are re-exported lazily (PEP 562): each is imported from its
submodule on first access, so importing the package loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# each re-exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "Circle", "FlatTorus", "ManifoldModel", "Sphere", "Spindle",
        "ball_volume", "bishop_gromov_ratio", "model_ball_volume",
        "unit_ball_volume"), "geometry"),
    **dict.fromkeys((
        "DensitySpec", "PointCloud", "bernstein_bound",
        "bernstein_empirical_check", "epsilon_schedule", "sample_dataset"),
        "sampling"),
    **dict.fromkeys((
        "WeightedGraph", "build_edges", "dirichlet_energy", "gamma_N_eps",
        "gamma_m_eps", "laplacian_apply", "random_walk_matrix"), "graph"),
    **dict.fromkeys((
        "DisconnectedGraphError", "SolverError", "SpectralResult",
        "eigen_decompose"), "spectral"),
    **dict.fromkeys((
        "RegularityCertificate", "almost_regularity", "certify",
        "doubling_constant", "moser_check", "moser_ratio", "nash_diagnostic",
        "poincare_constant", "smoothing_apply", "weighted_p_norm"),
        "regularity"),
    **dict.fromkeys((
        "delta_p_eps_a", "s_eps", "theorem_error_terms", "v_p_eps"),
        "distortion"),
    **dict.fromkeys((
        "KernelContext", "TestFunction", "discretize",
        "energy_comparison_report", "interpolate",
        "l2_norm_comparison_report", "psi_eps", "theta_K_eps", "theta_eps",
        "theta_n_eps"), "interpolation"),
    **dict.fromkeys((
        "ReferenceSpectrum", "appendix_ratio_check", "circle_spectrum",
        "sphere_spectrum", "spindle_spectrum", "torus_spectrum",
        "weighted_circle_spectrum"), "reference"),
    "ExperimentConfig": "config",
    **dict.fromkeys((
        "AlignmentReport", "align_eigenspaces", "run_convergence_sweep",
        "run_spectrum_experiment"), "experiments"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # a submodule loads on first access, not at package import
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
