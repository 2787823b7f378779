"""Ground-truth spectra and eigenfunctions of the continuum operators.

Circle, sphere and flat-torus spectra are closed forms.  The non-uniform
circle and the spindle have no closed forms; they are solved by
second-order finite differences as generalized symmetric eigenproblems in
the appropriate weighted L^2, with a mesh-doubling Richardson check (ratio
must sit in [3, 5]) and Richardson-extrapolated eigenvalues.  Every builder
lists its ascending (eigenvalue, eigenfunction, label) entries, and
``_spectrum`` keeps the first k_max + 1 of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import count, islice, product
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh

from .geometry import (Circle, FlatTorus, ManifoldModel, Sphere, Spindle,
                       sphere_area)
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
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(self.eigenvalues) < -1e-12):
            raise ValueError("eigenvalues must be nondecreasing")

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
        f = self.eigenfunctions[k]
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


def _spectrum(entries, k_max: int, weight: str, manifold: ManifoldModel,
              uniform_rho: Optional[float]) -> ReferenceSpectrum:
    """The first k_max + 1 of ascending (eigenvalue, eigenfunction, label)
    entries, as a reference spectrum orthonormal in ``weight``."""
    lams, funcs, labels = zip(*islice(entries, k_max + 1))
    return ReferenceSpectrum(
        eigenvalues=np.array(lams),
        eigenfunctions=list(funcs),
        weight=weight,
        manifold=manifold,
        labels=list(labels),
        uniform_rho=uniform_rho,
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
    mfd = Circle(radius)
    return _spectrum(_circle_entries(radius), k_max, "rho_vol", mfd,
                     1.0 / mfd.total_volume)


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
    mfd = FlatTorus(periods)
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
    return _spectrum(_torus_entries(frequencies, p), k_max, "rho_vol", mfd,
                     1.0 / mfd.total_volume)


def sphere_harmonic_multiplicity(l: int, m: int) -> int:
    """Multiplicity of the degree-l harmonic eigenvalue on S^m."""
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
    from scipy.special import sph_harm_y

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
    mfd = Sphere(m, radius)
    return _spectrum(_sphere_entries(m, radius), k_max, "rho_vol", mfd,
                     1.0 / mfd.total_volume)


# ---------------------------------------------------------------------------
# finite-difference Sturm-Liouville oracles


def _richardson(solve: Callable, mesh: int, what: str):
    """Solve on meshes mesh/4, mesh/2 and mesh, check second-order
    convergence, and extrapolate the fine level.

    ``solve(n)`` returns the eigenvalues on an n-cell mesh followed by any
    further outputs; those of the finest mesh follow the extrapolated
    eigenvalues in the returned tuple.
    """
    if mesh < 512 or mesh % 4:
        raise ValueError("mesh must be >= 512 and divisible by 4")
    coarse = solve(mesh // 4)[0]
    mid = solve(mesh // 2)[0]
    fine, *finest = solve(mesh)
    k = min(len(coarse), len(mid), len(fine))
    for i in range(1, k):
        denom = mid[i] - fine[i]
        numer = coarse[i] - mid[i]
        if abs(denom) < 1e-11 * max(1.0, abs(fine[i])):
            continue  # converged past the ratio's resolution
        ratio = numer / denom
        if not 3.0 <= ratio <= 5.0:
            raise RuntimeError(
                f"{what}: mesh sequence not second-order at index {i} "
                f"(Richardson ratio {ratio:.3f})"
            )
    return (fine[:k] + (fine[:k] - mid[:k]) / 3.0, *finest)


def _weighted_circle_eigs(mfd: Circle, dens: DensitySpec, k_max, mesh):
    n = mesh
    h = 2.0 * math.pi / n
    theta = np.arange(n) * h
    mid = theta + h / 2.0
    rho = dens.pdf(mfd, theta[:, None])
    rho_mid = dens.pdf(mfd, mid[:, None])
    w_edge = rho_mid**2 / h          # stiffness coefficients in theta
    mass = rho**2 * h
    i = np.arange(n)
    j = (i + 1) % n
    rows = np.r_[i, j, i, j]
    cols = np.r_[i, j, j, i]
    vals = np.r_[w_edge, w_edge, -w_edge, -w_edge]
    S = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr() / mfd.radius**2
    M = sparse.diags(mass)
    rng = np.random.Generator(np.random.PCG64(11))
    v0 = rng.standard_normal(n)
    shift = -0.05 / mfd.radius**2
    lam, vec = eigsh(S, k=k_max + 1, M=M, sigma=shift, which="LM", v0=v0)
    order = np.argsort(lam)
    lam = lam[order]
    lam[np.abs(lam) < 1e-12] = 0.0
    return lam, vec[:, order], theta


def weighted_circle_spectrum(radius: float, dens: DensitySpec, k_max: int,
                             mesh: int = 4096) -> ReferenceSpectrum:
    """FD spectrum of the drift Laplacian -f'' - 2 (log rho)' f' on the circle.

    Solved as a generalized symmetric problem in L^2(rho^2), on meshes
    mesh/4, mesh/2, mesh; eigenvalues are Richardson-extrapolated and the
    second-order ratio is enforced.
    """
    mfd = Circle(radius)
    lams, vec, theta = _richardson(
        partial(_weighted_circle_eigs, mfd, dens, k_max), mesh,
        "weighted_circle_spectrum")
    grid = np.append(theta, 2.0 * math.pi)

    def periodic(k):
        u = vec[:, k] / math.sqrt(radius)  # M-orthonormal -> rho2_vol-orthonormal
        table = np.append(u, u[0])
        return lambda zi, ze: np.interp(
            np.atleast_2d(zi)[:, 0] % (2.0 * math.pi), grid, table)

    uniform_rho = 1.0 / mfd.total_volume if dens.kind == "uniform" else None
    entries = ((lam, periodic(k), (0, k)) for k, lam in enumerate(lams))
    return _spectrum(entries, k_max, "rho2_vol", mfd, uniform_rho)


def _spindle_radial_eigs(m, c, mu, k_keep, mesh):
    """Radial operator for one fiber harmonic, cell-centered weighted FD."""
    n = mesh
    h = math.pi / n
    theta = (np.arange(n) + 0.5) * h
    faces = np.arange(1, n) * h
    jc = np.sin(theta) ** (m - 1)
    jf = np.sin(faces) ** (m - 1)
    mass = jc * h
    diag = np.zeros(n)
    np.add.at(diag, np.arange(n - 1), jf / h)
    np.add.at(diag, np.arange(1, n), jf / h)
    off = -jf / h
    if mu > 0:
        diag = diag + mu / (c * c * np.sin(theta) ** 2) * mass
    s = 1.0 / np.sqrt(mass)
    d_sym = diag * s * s
    e_sym = off * s[:-1] * s[1:]
    kk = min(k_keep, n - 1)
    vals, vecs = eigh_tridiagonal(d_sym, e_sym, select="i",
                                  select_range=(0, kk - 1))
    u = vecs * s[:, None]
    return vals, u, theta, mass


def spindle_spectrum(m: int, c: float, l_max: int, k_max: int,
                     mesh: int = 2048) -> ReferenceSpectrum:
    """Spectrum of the spindle by separation over fiber harmonics.

    For each fiber index l the radial Sturm-Liouville problem on (0, pi)
    with weight sin^{m-1} and potential l(l+m-2)/(c^2 sin^2) is solved by a
    cell-centered second-order scheme with natural (Neumann-type) endpoint
    handling; all (l, radial) eigenvalues merge in ascending order with
    harmonic multiplicities.  Radial (l = 0) eigenfunctions ship as
    evaluators.
    """
    mfd = Spindle(m, c)
    rho0 = 1.0 / mfd.total_volume
    # normalize in L^2(rho^2 H^m): rho0^2 * area * c^{m-1} * int u^2 J
    scale2 = rho0**2 * sphere_area(m - 1) * c ** (m - 1)

    def radial(u, theta, mass):
        table = u / math.sqrt(scale2 * float(np.sum(u**2 * mass)))
        return lambda zi, ze: np.interp(
            np.clip(np.atleast_2d(zi)[:, 0], theta[0], theta[-1]), theta, table)

    entries = []
    for l in range(l_max + 1):
        vals, u, theta, mass = _richardson(
            partial(_spindle_radial_eigs, m, c, l * (l + m - 2), k_max + 2),
            mesh, f"spindle_spectrum l={l}")
        mult = _fiber_multiplicity(l, m)
        for j, lam in enumerate(vals):
            f = radial(u[:, j], theta, mass) if l == 0 else None
            entries += [(float(lam), f, (l, j))] * mult
    entries.sort(key=lambda t: (t[0], t[2]))
    spec = _spectrum(entries, k_max, "rho2_vol", mfd, rho0)
    if len(spec.eigenvalues) < k_max + 1:
        raise ValueError("l_max too small for the requested k_max")
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
