"""Model manifolds, metrics, embeddings, and curvature model functions.

Four models are shipped: the circle, the round sphere S^m, the flat torus,
and the spindle (a warped product over S^{m-1} whose completion has two
non-smooth tips).  Each model knows its intrinsic (geodesic) metric, an
isometric embedding into Euclidean space and its total volume; a point is
its chart coordinates.  Spindle geodesics are great-circle arcs in closed
form: with psi = c*phi each 2-D section through the axis is the unit
sphere minus a lune.

``scipy.integrate``, which pulls in ``scipy.optimize``, loads on the first
quadrature (``_integrate``): the comparison volume V_K, the spindle's
volume and sampler, sphere ball volumes for m >= 3 and the kernel masses
theta of ``interpolation``.  The graph pipeline itself takes none, so a
graph command loads it only to build a spindle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = [
    "ManifoldModel",
    "Circle",
    "Sphere",
    "FlatTorus",
    "Spindle",
    "unit_ball_volume",
    "sphere_area",
    "model_sn",
    "model_ball_volume",
    "ball_volume",
    "mc_ball_volume",
    "bishop_gromov_ratio",
]


def _integrate():
    """``scipy.integrate``, imported on first use (see the module docstring)."""
    from scipy import integrate
    return integrate


# ---------------------------------------------------------------------------
# model functions of constant curvature -K


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return math.pi ** (m / 2.0) / special.gamma(m / 2.0 + 1.0)


def sphere_area(m: int) -> float:
    """Surface measure of the unit sphere S^m in R^{m+1}."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / special.gamma((m + 1) / 2.0)


def model_sn(K: float, r) -> float:
    """Comparison coefficient sinh(sqrt(K) r) / sqrt(K) for curvature -K.

    The geometric class keeps K >= 1, but the formula is accepted for any
    positive K (it tends to the Euclidean coefficient r as K -> 0).
    """
    if K <= 0.0:
        raise ValueError(f"K must be positive, got {K}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    s = math.sqrt(K)
    out = np.sinh(s * r) / s
    return float(out) if out.ndim == 0 else out


def model_ball_volume(m: int, K: float, r: float) -> float:
    """Comparison ball volume V_K(r) = vol(S^{m-1}) * int_0^r sn_K^{m-1}."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0.0:
        return 0.0
    if m == 1:
        return 2.0 * r
    val, _ = _integrate().quad(
        lambda t: model_sn(K, t) ** (m - 1), 0.0, r, epsabs=0.0, epsrel=1e-12
    )
    return sphere_area(m - 1) * val


# ---------------------------------------------------------------------------
# manifold models


class ManifoldModel:
    """Base class; concrete models supply metric, embedding and volumes."""

    kind: str
    m: int
    embedding_dim: int
    total_volume: float

    # -- chart / embedding ------------------------------------------------

    def embed(self, intrinsic: np.ndarray) -> np.ndarray:
        """Map an (n, k) array of chart coordinates to (n, d) Euclidean."""
        raise NotImplementedError

    # -- metric ------------------------------------------------------------

    def geodesic(self, xi: np.ndarray, yi: np.ndarray) -> float:
        """Geodesic distance between two chart coordinates."""
        return float(self.geodesic_to_many(xi, np.atleast_2d(yi))[0])

    def geodesic_to_many(self, xi: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """Geodesic distances from one point to a batch of points."""
        raise NotImplementedError

    # -- volume ------------------------------------------------------------

    def uniform_intrinsic(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n chart coordinates uniformly w.r.t. the volume measure."""
        raise NotImplementedError

    def ball_volume_exact(self, xi: np.ndarray, r: float):
        """Closed-form volume of the geodesic r-ball, or None if unavailable."""
        return None


class Circle(ManifoldModel):
    """Round circle of given radius, embedded in R^2."""

    kind = "circle"
    m = 1
    embedding_dim = 2

    def __init__(self, radius: float = 1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.total_volume = 2.0 * math.pi * self.radius

    def embed(self, intrinsic):
        th = np.asarray(intrinsic, dtype=float)[:, 0]
        return self.radius * np.column_stack([np.cos(th), np.sin(th)])

    def geodesic_to_many(self, xi, batch):
        d = np.abs(np.asarray(batch, dtype=float)[:, 0] - float(xi[0])) % (2.0 * math.pi)
        return self.radius * np.minimum(d, 2.0 * math.pi - d)

    def uniform_intrinsic(self, n, rng):
        return rng.uniform(0.0, 2.0 * math.pi, size=(n, 1))

    def ball_volume_exact(self, xi, r):
        return min(2.0 * r, self.total_volume)


class Sphere(ManifoldModel):
    """Round sphere S^m of given radius in R^{m+1}; chart = unit vector."""

    kind = "sphere"

    def __init__(self, m: int = 2, radius: float = 1.0):
        if m < 1:
            raise ValueError("sphere dimension must be >= 1")
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.m = int(m)
        self.radius = float(radius)
        self.embedding_dim = self.m + 1
        self.total_volume = sphere_area(self.m) * self.radius**self.m

    def embed(self, intrinsic):
        u = np.asarray(intrinsic, dtype=float)
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        return self.radius * u / norms

    def geodesic_to_many(self, xi, batch):
        u = np.asarray(xi, dtype=float)
        u = u / np.linalg.norm(u)
        b = np.asarray(batch, dtype=float)
        b = b / np.linalg.norm(b, axis=1, keepdims=True)
        return self.radius * np.arccos(np.clip(b @ u, -1.0, 1.0))

    def uniform_intrinsic(self, n, rng):
        g = rng.standard_normal((n, self.m + 1))
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    def ball_volume_exact(self, xi, r):
        t = min(r / self.radius, math.pi)
        if t <= 0:
            return 0.0
        if self.m == 2:
            return 2.0 * math.pi * self.radius**2 * (1.0 - math.cos(t))
        val, _ = _integrate().quad(
            lambda s: math.sin(s) ** (self.m - 1), 0.0, t, epsabs=0.0, epsrel=1e-12
        )
        return sphere_area(self.m - 1) * self.radius**self.m * val


class FlatTorus(ManifoldModel):
    """Flat torus with the given periods; each factor embeds as a circle."""

    kind = "flat_torus"

    def __init__(self, periods=(1.0, 1.0)):
        periods = tuple(float(p) for p in periods)
        if any(p <= 0 for p in periods):
            raise ValueError("periods must be positive")
        self.periods = periods
        self.m = len(periods)
        self.embedding_dim = 2 * self.m
        self.total_volume = float(np.prod(periods))

    def embed(self, intrinsic):
        t = np.asarray(intrinsic, dtype=float)
        cols = []
        for j, p in enumerate(self.periods):
            rad = p / (2.0 * math.pi)
            ang = 2.0 * math.pi * t[:, j] / p
            cols.append(rad * np.cos(ang))
            cols.append(rad * np.sin(ang))
        return np.column_stack(cols)

    def geodesic_to_many(self, xi, batch):
        b = np.asarray(batch, dtype=float)
        x = np.asarray(xi, dtype=float)
        d2 = np.zeros(len(b))
        for j, p in enumerate(self.periods):
            dj = np.abs(b[:, j] - x[j]) % p
            d2 += np.minimum(dj, p - dj) ** 2
        return np.sqrt(d2)

    def uniform_intrinsic(self, n, rng):
        u = rng.uniform(0.0, 1.0, size=(n, self.m))
        return u * np.asarray(self.periods)

    @property
    def injectivity_radius(self):
        return min(self.periods) / 2.0

    def ball_volume_exact(self, xi, r):
        if r <= self.injectivity_radius:
            return unit_ball_volume(self.m) * r**self.m
        if r >= math.sqrt(sum((p / 2.0) ** 2 for p in self.periods)):
            return self.total_volume
        return None


class Spindle(ManifoldModel):
    """Warped product over S^{m-1} with profile c*sin(theta), theta in (0, pi).

    The metric is dtheta^2 + c^2 sin^2(theta) ds^2; its completion adds two
    tips where the space is a metric cone of total angle 2*pi*c < 2*pi.
    Chart coordinates are (theta, u) with u a unit vector in R^m; the
    embedding is (x0(theta), c*sin(theta)*u) in R^{m+1} with
    x0'(theta) = sqrt(1 - c^2 cos^2 theta), an arclength-exact profile curve.
    """

    kind = "spindle"

    def __init__(self, m: int = 2, c: float = 1.0 / math.sqrt(2.0)):
        if m < 2:
            raise ValueError("spindle dimension must be >= 2")
        if not 0.0 < c <= 1.0:
            raise ValueError("warp constant c must lie in (0, 1]")
        self.m = int(m)
        self.c = float(c)
        self.embedding_dim = self.m + 1
        # total volume = vol(S^{m-1}) * c^{m-1} * int_0^pi sin^{m-1}
        prof, _ = _integrate().quad(
            lambda t: math.sin(t) ** (m - 1), 0.0, math.pi, epsabs=0.0, epsrel=1e-12
        )
        self.total_volume = sphere_area(m - 1) * self.c ** (m - 1) * prof

    def _profile_x0(self, theta):
        # int_0^theta sqrt(1 - c^2 cos^2 t) dt via incomplete elliptic E
        k2 = self.c * self.c
        theta = np.asarray(theta, dtype=float)
        return special.ellipe(k2) - special.ellipeinc(math.pi / 2.0 - theta, k2)

    def embed(self, intrinsic):
        z = np.asarray(intrinsic, dtype=float)
        th = z[:, 0]
        u = z[:, 1:]
        u = u / np.linalg.norm(u, axis=1, keepdims=True)
        x0 = self._profile_x0(th)
        return np.column_stack([x0, (self.c * np.sin(th))[:, None] * u])

    # -- geodesics: great-circle arcs of the unrolled sphere ---------------
    # psi = c * phi turns dtheta^2 + c^2 sin^2(theta) dphi^2 into the round
    # metric: the 2-D spindle is the unit sphere with a lune of angle
    # 2*pi*(1 - c) cut out and its edges glued.  As c <= 1, a fiber gap dphi
    # in [0, pi] is a longitude gap c * dphi <= pi, no more than the gap the
    # other way round, so the minor arc stays in the glued sector and, being
    # a spherical distance, is never longer than either path through a tip
    # (a path through a pole).  For m >= 3, _pair_distances reduces a pair to
    # this through the totally geodesic sub-spindle spanned by its fibers.

    def _rev_distance_many(self, t1, t2, dphi):
        """Distances of the 2-D surface-of-revolution problem, batched.

        ``t1``, ``t2`` are polar angles in [0, pi] and ``dphi`` fiber
        separations in [0, pi], as equal-length arrays.  The haversine form
        keeps short arcs accurate, where the arccos form loses ~1e-8.
        """
        t1, t2, dphi = (np.asarray(v, dtype=float) for v in (t1, t2, dphi))
        h = (np.sin(0.5 * (t1 - t2)) ** 2
             + np.sin(t1) * np.sin(t2) * np.sin(0.5 * self.c * dphi) ** 2)
        return 2.0 * np.arcsin(np.sqrt(np.minimum(h, 1.0)))

    def _pair_distances(self, za, zb):
        # geodesic distances between the rows of za and zb (broadcast)
        ua = za[:, 1:] / np.linalg.norm(za[:, 1:], axis=1, keepdims=True)
        ub = zb[:, 1:] / np.linalg.norm(zb[:, 1:], axis=1, keepdims=True)
        # half-angle form: small and near-pi gaps stay accurate, unlike arccos
        dphi = 2.0 * np.arctan2(np.linalg.norm(ua - ub, axis=1),
                                np.linalg.norm(ua + ub, axis=1))
        t1, t2 = np.broadcast_arrays(za[:, 0], zb[:, 0])
        return self._rev_distance_many(t1, t2, dphi)

    def geodesic_to_many(self, xi, batch):
        za = np.asarray(xi, dtype=float)[None, :]
        zb = np.asarray(batch, dtype=float).reshape(-1, za.shape[1])
        return self._pair_distances(za, zb)

    def uniform_intrinsic(self, n, rng):
        # theta-marginal density proportional to sin^{m-1}(theta)
        th = _sample_sin_power(self.m - 1, n, rng)
        g = rng.standard_normal((n, self.m))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return np.column_stack([th, g])


def _sample_sin_power(p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw angles on (0, pi) with density proportional to sin^p, p >= 1."""
    if p == 1:
        return np.arccos(1.0 - 2.0 * rng.uniform(0.0, 1.0, size=n))
    # inverse CDF by Newton on F(t) = int_0^t sin^p, vectorized
    norm, _ = _integrate().quad(lambda t: math.sin(t) ** p, 0.0, math.pi)
    u = rng.uniform(0.0, 1.0, size=n) * norm
    grid = np.linspace(0.0, math.pi, 4097)
    pdf = np.sin(grid) ** p
    cdf = _integrate().cumulative_trapezoid(pdf, grid, initial=0.0)
    cdf *= norm / cdf[-1]
    t = np.interp(u, cdf, grid)
    for _ in range(40):
        f = np.interp(t, grid, cdf) - u
        df = np.sin(t) ** p
        step = np.where(df > 1e-14, f / np.maximum(df, 1e-14), 0.0)
        t = np.clip(t - step, 0.0, math.pi)
    return t


# ---------------------------------------------------------------------------
# free-function operations


def mc_ball_volume(mfd, xi, r: float, n_mc: int = 40000, rng=None):
    """Monte-Carlo volume of B(xi, r); returns (value, standard error)."""
    if rng is None:
        rng = np.random.default_rng(0)
    z = mfd.uniform_intrinsic(n_mc, rng)
    d = mfd.geodesic_to_many(xi, z)
    p = float(np.mean(d < r))
    val = mfd.total_volume * p
    stderr = mfd.total_volume * math.sqrt(max(p * (1.0 - p), 0.0) / n_mc)
    return val, stderr


def ball_volume(mfd, xi, r: float, n_mc: int = 40000, rng=None) -> float:
    """Volume of the geodesic ball B(xi, r); closed form where available."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0.0:
        return 0.0
    exact = mfd.ball_volume_exact(xi, r)
    if exact is not None:
        return exact
    return mc_ball_volume(mfd, xi, r, n_mc=n_mc, rng=rng)[0]


def bishop_gromov_ratio(mfd, xi, r: float, K: float) -> float:
    """vol(B(xi, r)) / V_K(r); non-increasing in r under the curvature bound."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return ball_volume(mfd, xi, r) / model_ball_volume(mfd.m, K, r)
