"""Kernel interpolation between graph functions and manifold functions.

The truncated-parabola kernel vanishes beyond eps; normalizing it against
the empirical kernel density turns a vertex function into a Lipschitz
function on the sample's eps-neighborhood (a convex combination of vertex
values, hence a partition of unity).  The continuum counterparts of the
kernel density and the Dirichlet-form / L2-norm comparison reports of the
discretization direction live here as well.  ``theta_K_eps`` and
``theta_eps`` are radial quadratures; ``scipy.integrate`` loads on the
first of them, through ``geometry._integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import Circle, FlatTorus, ManifoldModel, Sphere, _integrate, \
    model_sn, sphere_area, unit_ball_volume
from .sampling import DensitySpec, PointCloud
from .graph import WeightedGraph, _edge_scale, _edge_sum

__all__ = [
    "KernelContext",
    "TestFunction",
    "psi_eps",
    "theta_n_eps",
    "theta_eps",
    "theta_K_eps",
    "interpolate",
    "discretize",
    "EnergyComparison",
    "L2Comparison",
    "energy_comparison_report",
    "l2_norm_comparison_report",
]


def psi_eps(dist, eps: float):
    """Truncated parabola kernel (1 - (d/eps)^2)/2 on [0, eps]."""
    d = np.asarray(dist, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    out = np.where(d <= eps, 0.5 * (1.0 - (d / eps) ** 2), 0.0)
    return float(out) if out.ndim == 0 else out


class KernelContext:
    """A sample with its eps-kernel; caches kernel sums at query points."""

    def __init__(self, cloud: PointCloud, eps: float):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.cloud = cloud
        self.eps = float(eps)
        self._cache: dict = {}

    def kernel_row(self, xi) -> np.ndarray:
        """psi_eps of the geodesic distances from the chart coordinates
        ``xi`` to every sample point."""
        xi = np.asarray(xi, dtype=float)
        key = xi.tobytes()
        row = self._cache.get(key)
        if row is None:
            d = self.cloud.manifold.geodesic_to_many(xi, self.cloud.intrinsic)
            row = psi_eps(d, self.eps)
            self._cache[key] = row
        return row


def theta_n_eps(ctx: KernelContext, xi) -> float:
    """Empirical kernel density (1/(n-1)) * sum_i psi_eps(d_g(xi, x_i))."""
    row = ctx.kernel_row(xi)
    return float(np.sum(row) / (ctx.cloud.n - 1))


def theta_eps(mfd: ManifoldModel, dens: DensitySpec, xi, eps: float) -> float:
    """Continuum kernel density: integral of psi_eps(d_g(xi, .)) against rho.

    Radial quadrature on the circle, sphere and torus (below the
    injectivity radius); any other model raises.
    """
    if isinstance(mfd, Circle):
        R = mfd.radius
        half = min(eps, math.pi * R)
        th0 = float(xi[0])

        def f(s):
            return psi_eps(abs(s), eps) * float(dens.pdf(mfd, np.array([[th0 + s / R]]))[0])

        val, _ = _integrate().quad(f, -half, half, epsabs=0.0, epsrel=1e-10, limit=200)
        return float(val)
    if dens.kind != "uniform":
        raise ValueError("only the uniform density is supported off the circle")
    rho0 = 1.0 / mfd.total_volume
    if isinstance(mfd, Sphere):
        R, m = mfd.radius, mfd.m
        top = min(eps, math.pi * R)
        val, _ = _integrate().quad(
            lambda r: psi_eps(r, eps) * (R * math.sin(r / R)) ** (m - 1),
            0.0, top, epsabs=0.0, epsrel=1e-10, limit=200,
        )
        return rho0 * sphere_area(m - 1) * val
    if isinstance(mfd, FlatTorus):
        if eps > mfd.injectivity_radius:
            raise ValueError("torus radial quadrature needs eps below min period/2")
        m = mfd.m
        val, _ = _integrate().quad(
            lambda r: psi_eps(r, eps) * r ** (m - 1),
            0.0, eps, epsabs=0.0, epsrel=1e-10, limit=200,
        )
        return rho0 * m * unit_ball_volume(m) * val
    raise ValueError(f"unsupported manifold {mfd.kind!r}")


def theta_K_eps(m: int, K: float, eps: float) -> float:
    """Comparison-model kernel mass m omega_m int_0^eps psi_eps sn_K^{m-1}."""
    val, _ = _integrate().quad(
        lambda r: psi_eps(r, eps) * model_sn(K, r) ** (m - 1),
        0.0, eps, epsabs=0.0, epsrel=1e-10, limit=200,
    )
    return m * unit_ball_volume(m) * val


def interpolate(ctx: KernelContext, phi, xi) -> float:
    """Kernel-weighted extension of a vertex function to the point ``xi``.

    The weights form a partition of unity on the support of the kernel
    density, so the value is a convex combination of vertex values.
    """
    phi = np.asarray(phi, dtype=float)
    row = ctx.kernel_row(xi)
    total = float(np.sum(row))
    if total <= 0.0:
        raise ValueError("point lies outside the kernel support (theta_n = 0)")
    return float(np.dot(row, phi) / total)


def discretize(f: Callable, cloud: PointCloud) -> np.ndarray:
    """Pointwise restriction of a manifold function to the sample."""
    return np.asarray(f(cloud.intrinsic, cloud.embedded), dtype=float)


# ---------------------------------------------------------------------------
# comparison reports


@dataclass(frozen=True)
class TestFunction:
    """A smooth test function bundled with its analytic reference integrals.

    ``values`` maps (intrinsic, embedded) arrays to one value per point.
    The integrals are against the sampling density: ``grad_sq_rho2`` is
    int |grad f|^2 rho^2 dvol, ``sq_rho`` is int f^2 rho dvol, and
    ``sq_rho2`` is int f^2 rho^2 dvol.
    """

    __test__ = False  # not a pytest class, despite the name

    name: str
    values: Callable
    grad_sq_rho2: Optional[float] = None
    sq_rho: Optional[float] = None
    sq_rho2: Optional[float] = None


@dataclass(frozen=True)
class EnergyComparison:
    n: int
    eps: float
    discrete: float
    continuous: float
    difference: float


@dataclass(frozen=True)
class L2Comparison:
    n: int
    eps: float
    plain_discrete: float
    plain_continuous: float
    degree_discrete: float
    degree_continuous: float


def energy_comparison_report(g: WeightedGraph, cloud: PointCloud,
                             f: TestFunction) -> EnergyComparison:
    """Discrete vs continuous Dirichlet energy of a test function.

    The discrete side sums squared difference quotients over the edges of
    ``g``, an eps-graph of ``cloud``, with the sampling normalization; the
    continuous side is int |grad f|^2 rho^2 dvol / (m+2).  Reporting only;
    no bound is asserted.
    """
    if f.grad_sq_rho2 is None:
        raise ValueError("test function needs the gradient-square integral")
    n, m, eps = cloud.n, cloud.manifold.m, g.epsilon
    vals = discretize(f.values, cloud)

    def term(i, j):
        diff = (vals[i] - vals[j]) / eps
        return diff**2

    discrete = 2.0 * _edge_sum(g, term) / _edge_scale(n, m, eps)
    continuous = f.grad_sq_rho2 / (m + 2.0)
    return EnergyComparison(
        n=n, eps=eps, discrete=discrete, continuous=continuous,
        difference=discrete - continuous,
    )


def l2_norm_comparison_report(g: WeightedGraph, cloud: PointCloud,
                              f: TestFunction) -> L2Comparison:
    """Discrete vs continuous L2 norms, plain and weighted by g's degrees."""
    if f.sq_rho is None or f.sq_rho2 is None:
        raise ValueError("test function needs both squared-norm integrals")
    n, m, eps = cloud.n, cloud.manifold.m, g.epsilon
    vals = discretize(f.values, cloud)
    plain = float(np.mean(vals**2))
    weighted = float(np.sum(vals**2 * g.degrees)) / _edge_scale(n, m, eps)
    return L2Comparison(
        n=n, eps=eps,
        plain_discrete=plain, plain_continuous=f.sq_rho,
        degree_discrete=weighted, degree_continuous=f.sq_rho2,
    )
