"""Ground-truth spectra and eigenfunctions of the continuum operators.

Circle, sphere, flat-torus and spindle spectra are closed forms; the
spindle's separates over fiber harmonics into Gegenbauer radial problems.
The cosine-tilted circle is solved by Galerkin on Fourier modes, which is
exact to rounding because rho^2 is a trigonometric polynomial.  Every builder
lists its ascending (eigenvalue, eigenfunction, label) entries, and
``_spectrum`` keeps the first k_max + 1 of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count, islice, product
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.linalg import eigh
from scipy.special import eval_gegenbauer, sph_harm_y

from .geometry import (Circle, FlatTorus, ManifoldModel, Sphere, Spindle,
                       _count, sphere_area)
from .sampling import DensitySpec

__all__ = [
    "ReferenceSpectrum",
    "circle_spectrum",
    "sphere_spectrum",
    "torus_spectrum",
    "weighted_circle_spectrum",
    "spindle_spectrum",
    "appendix_ratio_check",
    "sphere_harmonic_multiplicity",
]

CLUSTER_TOL = 1e-9


@dataclass
class ReferenceSpectrum:
    """Ascending reference eigenvalues with optional evaluators.

    ``weight`` names the L^2 weight in which the eigenfunctions are
    orthonormal: "rho_vol" or "rho2_vol".  ``labels`` carries a (harmonic
    index, radial index) pair per eigenvalue.  ``uniform_rho`` holds the
    constant density value when the density is uniform, enabling exact
    renormalization between the two weights.
    """

    eigenvalues: np.ndarray
    eigenfunctions: List[Optional[Callable]]
    weight: str                           # rho_vol | rho2_vol
    manifold: Optional[ManifoldModel] = None
    labels: List[Tuple[int, int]] = field(default_factory=list)
    uniform_rho: Optional[float] = None

    def __post_init__(self):
        lam = self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        # a NaN fails no comparison, so finiteness is checked apart
        if not np.all(np.isfinite(lam)) or np.any(np.diff(lam) < -1e-12):
            raise ValueError(f"eigenvalues must be finite and nondecreasing, "
                             f"got {lam.tolist()}")

    def clusters(self):
        """Index ranges [start, end] of equal eigenvalues up to CLUSTER_TOL."""
        out = []
        start = 0
        lam = self.eigenvalues
        for i in range(1, len(lam)):
            if lam[i] - lam[i - 1] > CLUSTER_TOL:
                out.append((start, i - 1))
                start = i
        out.append((start, len(lam) - 1))
        return out

    def evaluator(self, k: int, weight: Optional[str] = None):
        """Eigenfunction k, renormalized to the requested weight."""
        f = self.eigenfunctions[_count(k, "k", 0, len(self.eigenfunctions))]
        if f is None:
            raise ValueError(f"no evaluator stored for eigenvalue index {k}")
        if weight is None or weight == self.weight:
            return f
        if self.uniform_rho is None:
            raise ValueError(
                f"cannot renormalize from {self.weight} to {weight}: "
                "non-uniform density"
            )
        if (self.weight, weight) == ("rho_vol", "rho2_vol"):
            c = 1.0 / math.sqrt(self.uniform_rho)
        elif (self.weight, weight) == ("rho2_vol", "rho_vol"):
            c = math.sqrt(self.uniform_rho)
        else:
            raise ValueError(f"unknown weight {weight!r}")
        return lambda zi, ze, _f=f, _c=c: _c * np.asarray(_f(zi, ze))


def _spectrum(entries, k_max: int, manifold: ManifoldModel, weight="rho_vol",
              uniform: bool = True) -> ReferenceSpectrum:
    """The first k_max + 1 ascending (eigenvalue, eigenfunction, label)
    entries, orthonormal in ``weight``; ``uniform``: of a uniform density."""
    lams, funcs, labels = zip(*islice(entries, k_max + 1))
    return ReferenceSpectrum(
        eigenvalues=np.array(lams),
        eigenfunctions=list(funcs),
        weight=weight,
        manifold=manifold,
        labels=list(labels),
        uniform_rho=1.0 / manifold.total_volume if uniform else None,
    )


def _constant(zi, ze):
    return np.ones(len(np.atleast_2d(zi)))


# ---------------------------------------------------------------------------
# closed forms


def _circle_entries(radius: float):
    yield 0.0, _constant, (0, 0)
    for j in count(1):
        lam = (j / radius) ** 2

        def fc(zi, ze, _j=j):
            return math.sqrt(2.0) * np.cos(_j * np.atleast_2d(zi)[:, 0])

        def fs(zi, ze, _j=j):
            return math.sqrt(2.0) * np.sin(_j * np.atleast_2d(zi)[:, 0])

        yield lam, fc, (j, 0)
        yield lam, fs, (j, 1)


def circle_spectrum(radius: float, k_max: int) -> ReferenceSpectrum:
    """Spectrum (j/R)^2 with cos/sin pairs, uniform density normalization."""
    mfd, k_max = Circle(radius), _count(k_max, "k_max")
    return _spectrum(_circle_entries(radius), k_max, mfd)


def _torus_entries(frequencies, p):
    """The constant for kv = 0, else a cos/sin pair labelled by |kv|^2, for
    each of the ascending ``(lambda, kv)`` frequency vectors."""
    for lam, kv in frequencies:
        if not kv.any():
            yield 0.0, _constant, (0, 0)
            continue
        freq = 2.0 * math.pi * kv / p

        def fc(zi, ze, _f=freq):
            return math.sqrt(2.0) * np.cos(np.atleast_2d(zi) @ _f)

        def fs(zi, ze, _f=freq):
            return math.sqrt(2.0) * np.sin(np.atleast_2d(zi) @ _f)

        label = int(np.sum(kv * kv))
        yield lam, fc, (label, 0)
        yield lam, fs, (label, 1)


def torus_spectrum(periods, k_max: int) -> ReferenceSpectrum:
    """Flat-torus spectrum sum_j (2 pi k_j / p_j)^2 over frequency vectors."""
    mfd, k_max = FlatTorus(periods), _count(k_max, "k_max")
    p = np.asarray(periods, dtype=float)
    # enumerate enough lattice vectors; bound grows until we have k_max+1
    kmax_per_axis = 1
    while True:
        # one of each pair +-k: the one whose first nonzero entry is negative,
        # which comes first in product order
        kvs = (np.asarray(kv) for kv in product(
            range(-kmax_per_axis, kmax_per_axis + 1), repeat=len(p)))
        frequencies = sorted(
            ((float(np.sum((2.0 * math.pi * kv / p) ** 2)), kv)
             for kv in kvs if not kv.any() or kv[kv != 0][0] < 0),
            key=lambda t: t[0],
        )
        if len(frequencies) * 2 >= k_max + 2:
            # safe once the per-axis bound dominates the needed eigenvalue
            cutoff = frequencies[min(len(frequencies) - 1, k_max)][0]
            if (2.0 * math.pi * kmax_per_axis / np.max(p)) ** 2 > cutoff:
                break
        kmax_per_axis += 1
    return _spectrum(_torus_entries(frequencies, p), k_max, mfd)


def sphere_harmonic_multiplicity(l: int, m: int) -> int:
    """Multiplicity of the degree-l harmonic eigenvalue on S^m."""
    l, m = _count(l, "l"), _count(m, "m")
    if l == 0:
        return 1
    return int(round(math.comb(l + m, m) - math.comb(l + m - 2, m)))


def _sphere_l1_functions(m: int, radius: float):
    out = []
    for axis in range(m + 1):
        def f(zi, ze, _a=axis, _s=math.sqrt(m + 1), _r=radius):
            return _s * np.atleast_2d(ze)[:, _a] / _r

        out.append(f)
    return out


def _sphere2_harmonics(l: int, radius: float):
    """Real spherical harmonics of degree l on S^2, rho_vol-normalized."""
    out = []
    for mm in range(-l, l + 1):
        def f(zi, ze, _m=mm, _l=l, _r=radius):
            e = np.atleast_2d(ze) / _r
            theta = np.arccos(np.clip(e[:, 2], -1.0, 1.0))
            phi = np.arctan2(e[:, 1], e[:, 0])
            y = sph_harm_y(_l, abs(_m), theta, phi)
            if _m > 0:
                val = math.sqrt(2.0) * np.real(y)
            elif _m < 0:
                val = math.sqrt(2.0) * np.imag(y)
            else:
                val = np.real(y)
            # mean-square one on the sphere: scale by sqrt(4 pi)
            return math.sqrt(4.0 * math.pi) * val

        out.append(f)
    return out


def _sphere_entries(m: int, radius: float):
    for l in count():
        # eigenvalue of the metric sphere of radius R scales by 1/R^2; the
        # harmonics themselves are scale-invariant in the embedded coords
        lam = l * (l + m - 1) / radius**2
        if l == 0:
            fl = [_constant]
        elif l == 1:
            fl = _sphere_l1_functions(m, radius)
        elif m == 2:
            fl = _sphere2_harmonics(l, radius)
        else:
            fl = [None] * sphere_harmonic_multiplicity(l, m)
        for j, f in enumerate(fl):
            yield lam, f, (l, j)


def sphere_spectrum(m: int, radius: float, k_max: int) -> ReferenceSpectrum:
    """Spectrum l(l+m-1)/R^2 with harmonic multiplicities.

    Evaluators ship for l <= 1 on every sphere and for all listed l on S^2;
    higher harmonics on higher spheres carry eigenvalues only.
    """
    mfd, k_max = Sphere(m, radius), _count(k_max, "k_max")
    return _spectrum(_sphere_entries(m, radius), k_max, mfd)


# ---------------------------------------------------------------------------
# the tilted circle and the spindle


def _fourier(theta, K: int):
    """The modes 1, cos(k theta) and sin(k theta), k = 1..K, as columns."""
    kt = np.outer(theta, np.arange(1, K + 1))
    return np.column_stack([np.ones(len(theta)), np.cos(kt), np.sin(kt)])


def weighted_circle_spectrum(radius: float, dens: DensitySpec,
                             k_max: int) -> ReferenceSpectrum:
    """Spectrum of the drift Laplacian -f'' - 2 (log rho)' f' on the circle.

    Solved by Galerkin on the Fourier modes |k| <= K = max(48, k_max), as
    the generalized symmetric problem of the stiffness and mass forms in
    L^2(rho^2).  Every density makes rho^2 a trigonometric polynomial of
    degree <= 2, so the periodic trapezoid rule on 2K + 3 points integrates
    both forms exactly.  The eigenfunctions' Fourier coefficients decay
    geometrically, so the truncation is exact to rounding: K = 32 and
    K = 48 agree to 5e-13.
    """
    mfd, k_max = Circle(radius), _count(k_max, "k_max")
    K = max(48, k_max)
    n = 2 * K + 3
    theta = np.arange(n) * (2.0 * math.pi / n)
    modes = _fourier(theta, K)
    freq = np.arange(1, K + 1)
    grad = np.column_stack([np.zeros(n), -freq * modes[:, K + 1:],
                            freq * modes[:, 1:K + 1]]) / radius
    w = dens.pdf(mfd, theta[:, None]) ** 2 * (2.0 * math.pi * radius / n)
    lams, coef = eigh(grad.T @ (w[:, None] * grad),
                      modes.T @ (w[:, None] * modes),
                      subset_by_index=[0, k_max])

    def trig_sum(c):
        return lambda zi, ze: _fourier(np.atleast_2d(zi)[:, 0], K) @ c

    entries = ((lam, trig_sum(coef[:, k]), (0, k))
               for k, lam in enumerate(lams))
    return _spectrum(entries, k_max, mfd, "rho2_vol", dens.kind == "uniform")


def _gegenbauer(j: int, alpha: float, scale2: float):
    """C_j^(alpha)(cos theta), unit norm in scale2 * sin^(2 alpha) d theta."""
    # log of the Gegenbauer norm
    # pi 2^(1 - 2 alpha) Gamma(j + 2 alpha) / (j! (j + alpha) Gamma(alpha)^2)
    log_norm = (math.log(math.pi) + (1.0 - 2.0 * alpha) * math.log(2.0)
                + math.lgamma(j + 2.0 * alpha) - math.lgamma(j + 1.0)
                - math.log(j + alpha) - 2.0 * math.lgamma(alpha))
    s = 1.0 / math.sqrt(scale2 * math.exp(log_norm))
    return lambda zi, ze: s * eval_gegenbauer(
        j, alpha, np.cos(np.atleast_2d(zi)[:, 0]))


def spindle_spectrum(m: int, c: float, l_max: int,
                     k_max: int) -> ReferenceSpectrum:
    """Spectrum of the spindle in closed form, by separation over fiber
    harmonics.

    For fiber degree l the radial problem on (0, pi) has weight sin^{m-1}
    and potential l(l+m-2)/(c^2 sin^2).  Its Frobenius exponent at each tip
    is mu_l = -(m-2)/2 + sqrt(((m-2)/2)^2 + l(l+m-2)/c^2), its regular
    solutions are sin^{mu_l} C_j^{(mu_l + (m-1)/2)}(cos), and its
    eigenvalues are (mu_l + j)(mu_l + j + m - 1), j >= 0; at c = 1 these are
    the sphere's L(L + m - 1), L = l + j.  All (l, j) eigenvalues merge in
    ascending order with fiber multiplicities.  The radial (l = 0)
    eigenfunctions, Gegenbauer polynomials C_j^{((m-1)/2)}(cos theta), ship
    as evaluators.
    """
    mfd, l_max = Spindle(m, c), _count(l_max, "l_max")
    k_max = _count(k_max, "k_max")
    rho0 = 1.0 / mfd.total_volume
    # normalize in L^2(rho^2 H^m): rho0^2 * area * c^{m-1} * int u^2 J
    scale2 = rho0**2 * sphere_area(m - 1) * c ** (m - 1)
    half = (m - 2) / 2.0
    entries = []
    for l in range(l_max + 1):
        mu = -half + math.sqrt(half * half + l * (l + m - 2) / (c * c))
        mult = _fiber_multiplicity(l, m)
        for j in range(k_max + 1):
            f = _gegenbauer(j, (m - 1) / 2.0, scale2) if l == 0 else None
            entries += [((mu + j) * (mu + j + m - 1), f, (l, j))] * mult
    entries.sort(key=lambda t: (t[0], t[2]))
    spec = _spectrum(entries, k_max, mfd, "rho2_vol")
    # tail guard: the ground eigenvalue of fiber index l is at least
    # l(l+m-2)/c^2 (the potential term alone), so anything truncated away
    # must lie above the reported top
    mu_next = (l_max + 1) * (l_max + 1 + m - 2)
    top = spec.eigenvalues[-1]
    if mu_next / (c * c) <= top:
        raise ValueError(
            f"l_max={l_max} too small: truncated fiber indices could reach "
            f"down to {mu_next / (c * c):.4f} <= lambda_{k_max}={top:.4f}"
        )
    return spec


def _fiber_multiplicity(l: int, m: int) -> int:
    """Multiplicity of the degree-l harmonic on the fiber S^{m-1}."""
    d = m - 1
    if d == 1:
        return 1 if l == 0 else 2
    return sphere_harmonic_multiplicity(l, d)


# ---------------------------------------------------------------------------
# sup-norm and Lipschitz ratio checks


def appendix_ratio_check(spectrum: ReferenceSpectrum, k_max: int,
                         grid: int = 1 << 14):
    """Per eigenfunction: sup/L2 and Lip/L2 ratios on a dense grid.

    Implemented for the circle and S^2; any other model raises.  Returns a
    list of rows (k, sup_ratio, lip_ratio).  The L2 norm is taken in the
    spectrum's stored weight; for the shipped closed forms that norm is one,
    so the ratios are the plain sup norm and Lipschitz constant.
    """
    k_max = _count(k_max, "k_max", 0, len(spectrum.eigenfunctions))
    mfd = spectrum.manifold
    rows = []
    for k in range(k_max + 1):
        f = spectrum.eigenfunctions[k]
        if f is None:
            continue
        if isinstance(mfd, Circle):
            th = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
            z = th[:, None]
            vals = np.asarray(f(z, mfd.embed(z)))
            w = np.full(grid, 1.0 / grid)  # periodic trapezoid, uniform rho
            l2 = math.sqrt(float(np.sum(vals**2 * w)))
            sup = float(np.max(np.abs(vals)))
            step = mfd.radius * (th[1] - th[0])
            lip = float(np.max(np.abs(np.diff(np.append(vals, vals[0])))) / step)
        elif isinstance(mfd, Sphere) and mfd.m == 2:
            sup, lip, l2 = _sphere2_ratios(mfd, f, grid)
        else:
            raise ValueError(f"ratio check not implemented for {mfd!r}")
        rows.append((k, sup / l2, lip / l2))
    return rows


def _sphere2_ratios(mfd: Sphere, f, grid: int):
    R = mfd.radius
    nt = grid // 4
    nf = 256
    th = np.linspace(0.0, math.pi, nt + 1)
    ph = np.linspace(0.0, 2.0 * math.pi, nf, endpoint=False)
    T, P = np.meshgrid(th, ph, indexing="ij")
    u = np.column_stack([
        (np.sin(T) * np.cos(P)).ravel(),
        (np.sin(T) * np.sin(P)).ravel(),
        np.cos(T).ravel(),
    ])
    vals = np.asarray(f(u, R * u)).reshape(nt + 1, nf)
    sup = float(np.max(np.abs(vals)))
    # L2 via Gauss-Legendre in cos(theta) x periodic trapezoid in phi
    x, wgl = np.polynomial.legendre.leggauss(128)
    tgl = np.arccos(x)
    Tg, Pg = np.meshgrid(tgl, ph, indexing="ij")
    ug = np.column_stack([
        (np.sin(Tg) * np.cos(Pg)).ravel(),
        (np.sin(Tg) * np.sin(Pg)).ravel(),
        np.cos(Tg).ravel(),
    ])
    vg = np.asarray(f(ug, R * ug)).reshape(128, nf) ** 2
    l2 = math.sqrt(float(np.sum(vg.mean(axis=1) * wgl) / 2.0))
    # Lipschitz from grid differences along meridians and parallels
    dth = math.pi / nt
    lip = float(np.max(np.abs(np.diff(vals, axis=0))) / (R * dth))
    sin_mid = np.sin(th)[1:-1]
    dpar = np.abs(np.diff(np.concatenate([vals, vals[:, :1]], axis=1), axis=1))
    steps = R * sin_mid[:, None] * (2.0 * math.pi / nf)
    lip = max(lip, float(np.max(dpar[1:-1] / steps)))
    return sup, lip, l2
