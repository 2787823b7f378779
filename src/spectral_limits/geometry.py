"""Model manifolds, metrics, embeddings, and curvature model functions.

Four models are shipped: the circle, the round sphere S^m, the flat torus,
and the spindle (a warped product over S^{m-1} whose completion has two
non-smooth tips).  Each model knows its intrinsic (geodesic) metric, an
isometric embedding into Euclidean space, its total volume, and a constant
L with  d_embedded <= d_geodesic <= L * d_embedded,  so the Euclidean
distance of embedded points is an admissible surrogate metric.  L is the
exact pi/2 for the circle, sphere and torus; for the spindle it is a sampled
estimate, 1.05 times the worst ratio over 200 deterministic pairs, not a
proven bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

__all__ = [
    "ModelParams",
    "Point",
    "ManifoldModel",
    "Circle",
    "Sphere",
    "FlatTorus",
    "Spindle",
    "unit_ball_volume",
    "sphere_area",
    "model_sn",
    "model_ball_volume",
    "geodesic_distance",
    "embedding_distance",
    "ball_volume",
    "mc_ball_volume",
    "bishop_gromov_ratio",
]


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class ModelParams:
    """Geometric class parameters: dimension, curvature, diameter, volume.

    ``m`` is the intrinsic dimension, ``K >= 1`` the lower Ricci curvature
    scale (the comparison model has curvature -K), ``D >= 1`` an upper
    diameter bound and ``v`` a lower volume bound.
    """

    m: int
    K: float = 1.0
    D: float = 1.0
    v: float = 0.5

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"dimension m must be >= 1, got {self.m}")
        if self.K < 1.0:
            raise ValueError(f"curvature parameter K must be >= 1, got {self.K}")
        if self.D < 1.0:
            raise ValueError(f"diameter bound D must be >= 1, got {self.D}")
        if not 0.0 < self.v < 1.0:
            raise ValueError(f"volume bound v must lie in (0, 1), got {self.v}")


@dataclass(frozen=True)
class Point:
    """A point carrying both chart coordinates and embedded coordinates."""

    intrinsic: np.ndarray
    embedded: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "intrinsic", np.asarray(self.intrinsic, dtype=float))
        object.__setattr__(self, "embedded", np.asarray(self.embedded, dtype=float))


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
    val, _ = integrate.quad(
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

    def point(self, intrinsic) -> Point:
        intrinsic = np.atleast_1d(np.asarray(intrinsic, dtype=float))
        emb = self.embed(intrinsic[None, :])[0]
        return Point(intrinsic=intrinsic, embedded=emb)

    # -- metric ------------------------------------------------------------

    def geodesic(self, xi: np.ndarray, yi: np.ndarray) -> float:
        """Geodesic distance between two chart coordinates."""
        raise NotImplementedError

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

    @property
    def embedding_constant(self) -> float:
        """L with d_geodesic <= L * d_embedded (see the module docstring)."""
        raise NotImplementedError


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

    def geodesic(self, xi, yi):
        d = abs(float(xi[0]) - float(yi[0])) % (2.0 * math.pi)
        return self.radius * min(d, 2.0 * math.pi - d)

    def geodesic_to_many(self, xi, batch):
        d = np.abs(np.asarray(batch, dtype=float)[:, 0] - float(xi[0])) % (2.0 * math.pi)
        return self.radius * np.minimum(d, 2.0 * math.pi - d)

    def uniform_intrinsic(self, n, rng):
        return rng.uniform(0.0, 2.0 * math.pi, size=(n, 1))

    def ball_volume_exact(self, xi, r):
        return min(2.0 * r, self.total_volume)

    @property
    def embedding_constant(self):
        # arc/chord <= (pi/2) at the antipodal pair
        return math.pi / 2.0


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

    def geodesic(self, xi, yi):
        u = np.asarray(xi, dtype=float)
        v = np.asarray(yi, dtype=float)
        c = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        return self.radius * math.acos(min(1.0, max(-1.0, c)))

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
        val, _ = integrate.quad(
            lambda s: math.sin(s) ** (self.m - 1), 0.0, t, epsabs=0.0, epsrel=1e-12
        )
        return sphere_area(self.m - 1) * self.radius**self.m * val

    @property
    def embedding_constant(self):
        return math.pi / 2.0


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

    def geodesic(self, xi, yi):
        d2 = 0.0
        for j, p in enumerate(self.periods):
            dj = abs(float(xi[j]) - float(yi[j])) % p
            dj = min(dj, p - dj)
            d2 += dj * dj
        return math.sqrt(d2)

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

    @property
    def embedding_constant(self):
        return math.pi / 2.0


# Spindle geodesics.  A geodesic with Clairaut constant a sweeps the fiber
# angle alpha*S(theta_A, a) + beta*S(theta_B, a) + gamma*pi/c, where S is the
# antiderivative Spindle._sweep and each row of _FAMILIES holds (alpha, beta,
# gamma) for one family: "down" and "up" use (theta_A, theta_B) = (t1, t2)
# and turn once, on one or the other of the two circles c*sin(theta) = a;
# "mono" uses (max, min) of the two and has no turning point.  The same
# coefficients combine the arclengths, with pi in place of pi/c.
_FAMILIES = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, 1.0], [1.0, -1.0, 0.0]])
# a / a_end on the scan grid, a_end = c * min(sin t1, sin t2): dense near the
# turning point, where the sweep is steepest
_CLAIRAUT_GRID = (1.0 - np.geomspace(1e-14, 1.0 - 1e-9, 48))[::-1]
_TINY = 1e-12  # tolerance for the meridian, tip and equator cases
_XTOL = 1e-14  # final bracket width of every root
_BLOCK = 256   # pairs per kernel call; bounds the (3, pairs, 48) arrays


def _illinois(func, lo, hi, flo, fhi):
    """Roots of the vectorized ``func`` in the brackets [lo, hi], elementwise.

    ``flo = func(lo)`` and ``fhi = func(hi)`` have opposite signs.  This is
    regula falsi with the Illinois modification: an end kept twice in a row
    has its value halved, so both ends converge.  Iterates until every
    bracket is at most ``_XTOL`` wide and returns the midpoints.
    """
    sign = np.sign(fhi)  # orient every bracket so that func < 0 at lo
    flo, fhi = sign * flo, sign * fhi
    prev = np.full(len(lo), 2)  # whether x replaced lo last step; 2: no step yet
    while (hi - lo > _XTOL).any():
        x = hi - fhi * (hi - lo) / (fhi - flo)
        fx = sign * func(x)
        left = fx < 0.0  # x replaces lo
        h = np.where(left == prev, 0.5, 1.0)
        flo, fhi = np.where(left, fx, h * flo), np.where(left, h * fhi, fx)
        lo = np.where(fx <= 0.0, x, lo)  # an exact zero closes the bracket
        hi = np.where(left, hi, x)
        prev = left
    return 0.5 * (lo + hi)


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
        prof, _ = integrate.quad(
            lambda t: math.sin(t) ** (m - 1), 0.0, math.pi, epsabs=0.0, epsrel=1e-12
        )
        self.total_volume = sphere_area(m - 1) * self.c ** (m - 1) * prof
        self._L = None

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

    # -- geodesics: Clairaut integrals in closed form ----------------------

    def _sweep(self, a, cot):
        # antiderivative of dphi/dtheta along a geodesic with Clairaut
        # constant a, at the polar angle of cotangent cot; 0 < a < c always
        w = a * cot / np.sqrt(self.c * self.c - a * a)
        return -np.arcsin(np.minimum(np.maximum(w, -1.0), 1.0)) / self.c

    def _arclen(self, a, cot):
        # antiderivative of ds/dtheta along the same geodesic
        rad = (self.c * self.c - a * a) - a * a * cot * cot
        return -np.arctan2(self.c * cot, np.sqrt(np.maximum(rad, 0.0)))

    def _rev_distance_many(self, t1, t2, dphi):
        """Distances of the 2-D surface-of-revolution problem, batched.

        ``t1``, ``t2`` are polar angles in [0, pi] and ``dphi`` fiber
        separations in [0, pi], as equal-length arrays.  Pairs are solved in
        blocks of ``_BLOCK`` so that the work arrays stay small.
        """
        t1, t2, dphi = (np.asarray(v, dtype=float) for v in (t1, t2, dphi))
        out = np.empty(len(t1))
        for s in range(0, len(out), _BLOCK):
            blk = slice(s, s + _BLOCK)
            out[blk] = self._rev_block(t1[blk], t2[blk], dphi[blk])
        return out

    def _rev_block(self, t1, t2, dphi):
        # candidates: both paths through the tips, the meridian, the equator
        # arc, and every geodesic of the Clairaut families whose sweep equals
        # dphi; the distance is the shortest of them
        c = self.c
        d = np.minimum(t1 + t2, 2.0 * math.pi - t1 - t2)
        meridian = dphi <= _TINY
        d = np.where(meridian, np.minimum(d, np.abs(t1 - t2)), d)
        s1, s2 = np.sin(t1), np.sin(t2)
        skip = meridian | (np.minimum(s1, s2) <= _TINY)  # meridians, tips
        equator = ~skip & (np.maximum(np.abs(t1 - math.pi / 2.0),
                                      np.abs(t2 - math.pi / 2.0)) <= _TINY)
        d = np.where(equator, np.minimum(d, c * dphi), d)

        # every family's sweep as coef[:, 0] * S(t1) + coef[:, 1] * S(t2)
        # + const, arrays (family, ..., pair); "mono" takes max minus min
        coef = np.repeat(_FAMILIES[:, :2, None], len(t1), axis=2)
        coef[2] *= np.where(t1 >= t2, 1.0, -1.0)
        gamma = _FAMILIES[:, 2]
        const = gamma[:, None] * (math.pi / c) - dphi
        cot = np.array([np.cos(t1) / np.maximum(s1, _TINY),  # finite at tips
                        np.cos(t2) / np.maximum(s2, _TINY)])

        # scan sweep - dphi on the grid of Clairaut constants; skipped rows
        # become NaN, so they have neither sign changes nor zeros
        a = (c * np.minimum(s1, s2))[:, None] * _CLAIRAUT_GRID
        sw1, sw2 = self._sweep(a, cot[0, :, None]), self._sweep(a, cot[1, :, None])
        vals = coef[:, 0, :, None] * sw1 + coef[:, 1, :, None] * sw2 + const[..., None]
        vals[:, skip] = np.nan
        vals[2, np.abs(t1 - t2) <= _TINY] = np.nan  # no monotone family

        # refine every sign change to a root; exact grid zeros are roots too
        sign = np.sign(vals)
        f, j, i = np.nonzero(sign[..., :-1] * sign[..., 1:] < 0)
        cot_b, coef_b, k = cot[:, j], coef[f, :, j].T, const[f, j]

        def sweep_minus_dphi(x):
            cs = coef_b * self._sweep(x, cot_b)
            return cs[0] + cs[1] + k

        roots = _illinois(sweep_minus_dphi, a[j, i], a[j, i + 1],
                          vals[f, j, i], vals[f, j, i + 1])
        fz, jz, iz = np.nonzero(vals == 0.0)
        f, j = np.concatenate([f, fz]), np.concatenate([j, jz])
        roots = np.concatenate([roots, a[jz, iz]])
        length = (coef[f, 0, j] * self._arclen(roots, cot[0, j])
                  + coef[f, 1, j] * self._arclen(roots, cot[1, j]) + gamma[f] * math.pi)
        np.minimum.at(d, j, length)
        return d

    def _pair_distances(self, za, zb):
        # geodesic distances between the rows of za and zb (broadcast)
        ua = za[:, 1:] / np.linalg.norm(za[:, 1:], axis=1, keepdims=True)
        ub = zb[:, 1:] / np.linalg.norm(zb[:, 1:], axis=1, keepdims=True)
        dphi = np.arccos(np.clip(np.sum(ua * ub, axis=1), -1.0, 1.0))
        t1, t2 = np.broadcast_arrays(za[:, 0], zb[:, 0])
        return self._rev_distance_many(t1, t2, dphi)

    def geodesic(self, xi, yi):
        return float(self.geodesic_to_many(xi, [yi])[0])

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

    @property
    def embedding_constant(self):
        # a sampled estimate, not a bound: 1.05 times the worst ratio over 200
        # deterministic pairs; the worst pairs sit across the tips, where
        # d_g/d_embedded -> sqrt(2) for c = 1/sqrt(2)
        if self._L is None:
            z = self.uniform_intrinsic(400, np.random.default_rng(20240801))
            emb = self.embed(z)
            dg = self._pair_distances(z[0::2], z[1::2])
            de = np.linalg.norm(emb[0::2] - emb[1::2], axis=1)
            far = de > 1e-9
            self._L = 1.05 * float(np.max(dg[far] / de[far], initial=1.0))
        return self._L


def _sample_sin_power(p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw angles on (0, pi) with density proportional to sin^p."""
    if p == 0:
        return rng.uniform(0.0, math.pi, size=n)
    if p == 1:
        return np.arccos(1.0 - 2.0 * rng.uniform(0.0, 1.0, size=n))
    # inverse CDF by Newton on F(t) = int_0^t sin^p, vectorized
    norm, _ = integrate.quad(lambda t: math.sin(t) ** p, 0.0, math.pi)
    u = rng.uniform(0.0, 1.0, size=n) * norm
    grid = np.linspace(0.0, math.pi, 4097)
    pdf = np.sin(grid) ** p
    cdf = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
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


def geodesic_distance(mfd: ManifoldModel, x: Point, y: Point) -> float:
    """Intrinsic distance between two points of the same model."""
    return mfd.geodesic(x.intrinsic, y.intrinsic)


def embedding_distance(mfd: ManifoldModel, x: Point, y: Point) -> float:
    """Euclidean distance of the embedded coordinates (surrogate metric)."""
    return float(np.linalg.norm(x.embedded - y.embedded))


def mc_ball_volume(mfd, x: Point, r: float, n_mc: int = 40000, rng=None):
    """Monte-Carlo geodesic ball volume; returns (value, standard error)."""
    if rng is None:
        rng = np.random.default_rng(0)
    z = mfd.uniform_intrinsic(n_mc, rng)
    d = mfd.geodesic_to_many(x.intrinsic, z)
    p = float(np.mean(d < r))
    val = mfd.total_volume * p
    stderr = mfd.total_volume * math.sqrt(max(p * (1.0 - p), 0.0) / n_mc)
    return val, stderr


def ball_volume(mfd, x: Point, r: float, n_mc: int = 40000, rng=None) -> float:
    """Volume of the geodesic ball B(x, r); closed form where available."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0.0:
        return 0.0
    exact = mfd.ball_volume_exact(x.intrinsic, r)
    if exact is not None:
        return exact
    return mc_ball_volume(mfd, x, r, n_mc=n_mc, rng=rng)[0]


def bishop_gromov_ratio(mfd, x: Point, r: float, K: float, n_mc: int = 40000, rng=None) -> float:
    """vol(B(x, r)) / V_K(r); non-increasing in r under the curvature bound."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return ball_volume(mfd, x, r, n_mc=n_mc, rng=rng) / model_ball_volume(mfd.m, K, r)
