"""Model manifolds, metrics, embeddings, and curvature model functions.

Four models are shipped: the circle, the round sphere S^m, the flat torus,
and the spindle (a warped product over S^{m-1} whose completion has two
non-smooth tips).  Each model knows its intrinsic (geodesic) metric, an
isometric embedding into Euclidean space and its total volume; a point is
its chart coordinates.  Spindle geodesics are great-circle arcs in closed
form: with psi = c*phi each 2-D section through the axis is the unit
sphere minus a lune.

Every integral of sin^p that the models need (sphere ball volumes, the
spindle's volume and its polar-angle law) is a regularized incomplete
beta function, ``_sin_power_integral``.  The remaining model integrals,
the comparison volume V_K and the kernel masses theta of ``interpolation``
on the circle, the sphere and the comparison model, share one fixed
64-point Gauss-Legendre rule, ``_gauss``, built on first use, so a
command that integrates nothing never builds it.
"""

from __future__ import annotations

import functools
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
    "model_ball_volume",
    "ball_volume",
    "mc_ball_volume",
    "bishop_gromov_ratio",
]


@functools.cache
def _gauss_rule():
    """Nodes and weights of the 64-point Gauss-Legendre rule on [-1, 1],
    read-only, since every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss(f, a: float, b: float) -> float:
    """int_a^b f by the 64-point Gauss-Legendre rule; ``f`` maps arrays.

    The rule is built on first use.  Every integrand it is given is entire
    on an interval no longer than pi R or r, so the rule is exact to
    rounding.
    """
    nodes, weights = _gauss_rule()
    half = 0.5 * (b - a)
    x = half * nodes + 0.5 * (a + b)
    return half * float(weights @ f(x))


def _sin_power_integral(p: int, t: float) -> float:
    """int_0^t sin^p for a whole p >= 0 and 0 <= t <= pi.

    With x = sin^2(s/2) the integrand is 2^p (x(1-x))^(a-1) dx, a = (p+1)/2,
    so the integral is the Wallis mass int_0^pi sin^p = (p-1)!!/p!! times
    pi (p even) or 2 (p odd), times the regularized incomplete beta
    function I_x(a, a) at x = sin^2(t/2).
    """
    a = (p + 1) / 2.0
    wallis = math.prod(range(p - 1, 0, -2)) / math.prod(range(p, 0, -2))
    wallis *= math.pi if p % 2 == 0 else 2.0
    return wallis * float(special.betainc(a, a, math.sin(t / 2.0) ** 2))


# ---------------------------------------------------------------------------
# argument checks, called once at the top of each public function; each
# ValueError names the argument ``what``


def _length(value, what: str) -> float:
    """``value`` as a float, which must be positive and finite."""
    value = float(value)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return value


def _nonnegative(value, what: str, finite: bool = False):
    """A float or float array of entries >= 0, and finite with ``finite``."""
    value = np.asarray(value, dtype=float)
    if not np.all((value >= 0) & (np.isfinite(value) | (not finite))):
        rule = " and finite" if finite else ""
        raise ValueError(f"{what} must be nonnegative{rule}, got {value}")
    return float(value) if value.ndim == 0 else value


def _exponent(p, above_two: bool = False, inf: bool = False) -> float:
    """``p`` as a float >= 1, or > 2 with ``above_two``; inf with ``inf``."""
    p = float(p)
    if not (p > 2 if above_two else p >= 1):
        rule = "exceed 2" if above_two else "be >= 1"
        raise ValueError(f"p must {rule}, got {p}")
    if p == math.inf and not inf:
        raise ValueError(f"p must be finite, got {p}")
    return p


def _count(value, what: str, least: int = 0, below=None) -> int:
    """A whole number >= ``least``, and < ``below`` if given, as an int."""
    if not (float(value).is_integer() and value >= least
            and (below is None or value < below)):
        top = "" if below is None else f" and < {below}"
        raise ValueError(f"{what} must be an integer >= {least}{top}, got {value}")
    return int(value)


def _vertex_function(phi, n: int, what: str = "phi") -> np.ndarray:
    """``phi`` as a float array, which must have shape (n,)."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {phi.shape}")
    return phi


def _no_vertex(bad, what: str) -> None:
    """A ValueError naming ``what`` at the first ten vertices ``bad`` marks."""
    at = np.flatnonzero(bad)
    if len(at):
        raise ValueError(f"{what} at {at[:10].tolist()}")


# ---------------------------------------------------------------------------
# model functions of constant curvature -K


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m."""
    m = _count(m, "m", 1)
    return math.pi ** (m / 2.0) / special.gamma(m / 2.0 + 1.0)


def sphere_area(m: int) -> float:
    """Surface measure of the unit sphere S^m in R^{m+1}."""
    m = _count(m, "m")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / special.gamma((m + 1) / 2.0)


def _sn(K: float, r):
    """sinh(sqrt(K) r) / sqrt(K), the comparison coefficient for curvature
    -K at the radii r >= 0 of the integrands of V_K and theta_K."""
    s = math.sqrt(K)
    return np.sinh(s * r) / s


def model_ball_volume(m: int, K: float, r: float) -> float:
    """Comparison ball volume V_K(r) = vol(S^{m-1}) * int_0^r sn_K^{m-1}."""
    m, K = _count(m, "m", 1), _length(K, "K")
    r = _nonnegative(r, "r", finite=True)
    if m == 1:
        return 2.0 * r
    val = _gauss(lambda t: _sn(K, t) ** (m - 1), 0.0, r)
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
        self.radius = _length(radius, "radius")
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
        self.m = _count(m, "m", 1)
        self.radius = _length(radius, "radius")
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
        return (sphere_area(self.m - 1) * self.radius**self.m
                * _sin_power_integral(self.m - 1, t))


class FlatTorus(ManifoldModel):
    """Flat torus with the given periods; each factor embeds as a circle."""

    kind = "flat_torus"

    def __init__(self, periods=(1.0, 1.0)):
        self.periods = tuple(_length(p, "periods") for p in periods)
        self.m = _count(len(self.periods), "len(periods)", 1)
        self.embedding_dim = 2 * self.m
        self.total_volume = float(np.prod(self.periods))

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
        self.m = _count(m, "m", 2)
        if not 0.0 < c <= 1.0:
            raise ValueError("warp constant c must lie in (0, 1]")
        self.c = float(c)
        self.embedding_dim = self.m + 1
        # total volume = vol(S^{m-1}) * c^{m-1} * int_0^pi sin^{m-1}
        self.total_volume = (sphere_area(self.m - 1) * self.c ** (self.m - 1)
                             * _sin_power_integral(self.m - 1, math.pi))

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
    """Draw angles on (0, pi) with density proportional to sin^p, p >= 1.

    Exact inverse CDF: by ``_sin_power_integral`` the CDF at t is I_x(a, a)
    with a = (p+1)/2 and x = sin^2(t/2) = (1 - cos t)/2.
    """
    a = (p + 1) / 2.0
    x = special.betaincinv(a, a, rng.uniform(0.0, 1.0, size=n))
    return np.arccos(1.0 - 2.0 * x)


# ---------------------------------------------------------------------------
# free-function operations


def mc_ball_volume(mfd, xi, r: float, n_mc: int = 40000, rng=None):
    """Monte-Carlo volume of B(xi, r); returns (value, standard error)."""
    return _mc_ball_volume(mfd, xi, _nonnegative(r, "r"),
                           _count(n_mc, "n_mc", 1), rng)


def _mc_ball_volume(mfd, xi, r: float, n_mc: int, rng):
    """``mc_ball_volume`` of checked arguments."""
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
    r = _nonnegative(r, "r", finite=True)
    exact = mfd.ball_volume_exact(xi, r)
    if exact is not None:
        return exact
    return mc_ball_volume(mfd, xi, r, n_mc=n_mc, rng=rng)[0]


def bishop_gromov_ratio(mfd, xi, r: float, K: float) -> float:
    """vol(B(xi, r)) / V_K(r); non-increasing in r under the curvature bound."""
    r = _length(r, "r")
    return ball_volume(mfd, xi, r) / model_ball_volume(mfd.m, K, r)
