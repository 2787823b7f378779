"""Spectral approximation of weighted manifold Laplacians from point samples.

The package builds epsilon-neighborhood graphs on i.i.d. samples of model
manifolds (circle, sphere, flat torus, spindle), solves the weighted graph
Laplacian eigenproblem, and compares spectra and eigenspaces against
continuum references, together with the regularity and distortion
quantities that control the approximation error.
"""

__version__ = "0.1.0"

from .geometry import (
    Circle,
    FlatTorus,
    ManifoldModel,
    Sphere,
    Spindle,
    ball_volume,
    bishop_gromov_ratio,
    model_ball_volume,
    unit_ball_volume,
)
from .sampling import (
    DensitySpec,
    PointCloud,
    bernstein_bound,
    bernstein_empirical_check,
    epsilon_schedule,
    sample_dataset,
)
from .graph import (
    WeightedGraph,
    build_edges,
    dirichlet_energy,
    gamma_N_eps,
    gamma_m_eps,
    laplacian_apply,
    random_walk_matrix,
)
from .spectral import DisconnectedGraphError, SolverError, SpectralResult, \
    eigen_decompose
from .regularity import (
    RegularityCertificate,
    almost_regularity,
    certify,
    doubling_constant,
    moser_check,
    moser_ratio,
    nash_diagnostic,
    poincare_constant,
    smoothing_apply,
    weighted_p_norm,
)
from .distortion import delta_p_eps_a, s_eps, theorem_error_terms, v_p_eps
from .interpolation import (
    KernelContext,
    TestFunction,
    discretize,
    energy_comparison_report,
    interpolate,
    l2_norm_comparison_report,
    psi_eps,
    theta_K_eps,
    theta_eps,
    theta_n_eps,
)
from .reference import (
    ReferenceSpectrum,
    appendix_ratio_check,
    circle_spectrum,
    sphere_spectrum,
    spindle_spectrum,
    torus_spectrum,
    weighted_circle_spectrum,
)
from .experiments import (
    AlignmentReport,
    ExperimentConfig,
    align_eigenspaces,
    run_convergence_sweep,
    run_spectrum_experiment,
)
