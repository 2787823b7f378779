"""Kernel interpolation between graph functions and manifold functions.

The truncated-parabola kernel vanishes beyond eps; normalizing it against
the empirical kernel density turns a vertex function into a Lipschitz
function on the sample's eps-neighborhood (a convex combination of vertex
values, hence a partition of unity).  The continuum counterparts of the
kernel density and the Dirichlet-form / L2-norm comparison reports of the
discretization direction live here as well.  ``theta_K_eps`` and
``theta_eps`` on the circle and sphere are radial integrals by the fixed
Gauss-Legendre rule ``geometry._gauss``.  On the flat torus ``theta_eps``
is closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Circle, FlatTorus, ManifoldModel, Sphere, _count, \
    _gauss, _length, _nonnegative, _sn, _vertex_function, sphere_area, \
    unit_ball_volume
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
    out = _psi(_nonnegative(dist, "dist"), _length(eps, "eps"))
    return float(out) if out.ndim == 0 else out


def _psi(d, eps: float):
    """``psi_eps`` of checked arguments."""
    return np.where(d <= eps, 0.5 * (1.0 - (d / eps) ** 2), 0.0)


class KernelContext:
    """A sample with its eps-kernel; caches kernel sums at query points."""

    def __init__(self, cloud: PointCloud, eps: float):
        self.cloud = cloud
        self.eps = _length(eps, "eps")
        self._cache: dict = {}

    def kernel_row(self, xi) -> np.ndarray:
        """psi_eps of the geodesic distances from the chart coordinates
        ``xi`` to every sample point."""
        xi = np.asarray(xi, dtype=float)
        key = xi.tobytes()
        row = self._cache.get(key)
        if row is None:
            d = self.cloud.manifold.geodesic_to_many(xi, self.cloud.intrinsic)
            row = _psi(d, self.eps)
            self._cache[key] = row
        return row


def theta_n_eps(ctx: KernelContext, xi) -> float:
    """Empirical kernel density (1/(n-1)) * sum_i psi_eps(d_g(xi, x_i))."""
    row = ctx.kernel_row(xi)
    return float(np.sum(row) / (ctx.cloud.n - 1))


def theta_eps(mfd: ManifoldModel, dens: DensitySpec, xi, eps: float) -> float:
    """Continuum kernel density: integral of psi_eps(d_g(xi, .)) against rho.

    A Gauss-Legendre radial integral on the circle and sphere, and the
    closed form rho0 omega_m eps^m / (m+2) on the torus below its
    injectivity radius; any other model raises.
    """
    eps = _length(eps, "eps")
    if isinstance(mfd, Circle):
        R = mfd.radius
        half = min(eps, math.pi * R)
        th0 = float(xi[0])
        return _gauss(lambda s: _psi(np.abs(s), eps)
                      * dens.pdf(mfd, (th0 + s / R)[:, None]), -half, half)
    if dens.kind != "uniform":
        raise ValueError("only the uniform density is supported off the circle")
    rho0 = 1.0 / mfd.total_volume
    if isinstance(mfd, Sphere):
        R, m = mfd.radius, mfd.m
        top = min(eps, math.pi * R)
        val = _gauss(lambda r: _psi(r, eps) * (R * np.sin(r / R))
                     ** (m - 1), 0.0, top)
        return rho0 * sphere_area(m - 1) * val
    if isinstance(mfd, FlatTorus):
        if eps > mfd.injectivity_radius:
            raise ValueError("torus kernel mass needs eps below min period/2")
        return rho0 * unit_ball_volume(mfd.m) * eps**mfd.m / (mfd.m + 2.0)
    raise ValueError(f"unsupported manifold {mfd.kind!r}")


def theta_K_eps(m: int, K: float, eps: float) -> float:
    """Comparison-model kernel mass m omega_m int_0^eps psi_eps sn_K^{m-1}."""
    m, eps, K = _count(m, "m", 1), _length(eps, "eps"), _length(K, "K")
    val = _gauss(lambda r: _psi(r, eps) * _sn(K, r) ** (m - 1), 0.0, eps)
    return m * unit_ball_volume(m) * val


def interpolate(ctx: KernelContext, phi, xi) -> float:
    """Kernel-weighted extension of a vertex function to the point ``xi``.

    The weights form a partition of unity on the support of the kernel
    density, so the value is a convex combination of vertex values.
    """
    phi = _vertex_function(phi, ctx.cloud.n)
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
    All three integrals are required, and are against the sampling
    density: ``grad_sq_rho2`` is int |grad f|^2 rho^2 dvol, ``sq_rho`` is
    int f^2 rho dvol, and ``sq_rho2`` is int f^2 rho^2 dvol.
    """

    __test__ = False  # not a pytest class, despite the name

    name: str
    values: Callable
    grad_sq_rho2: float
    sq_rho: float
    sq_rho2: float


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
    n, m, eps = cloud.n, cloud.manifold.m, g.epsilon
    vals = discretize(f.values, cloud)
    plain = float(np.mean(vals**2))
    weighted = float(np.sum(vals**2 * g.degrees)) / _edge_scale(n, m, eps)
    return L2Comparison(
        n=n, eps=eps,
        plain_discrete=plain, plain_continuous=f.sq_rho,
        degree_discrete=weighted, degree_continuous=f.sq_rho2,
    )
