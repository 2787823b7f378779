"""Second-order finite-difference oracles for the two reference spectra
that ``spectral_limits.reference`` builds exactly: the cosine-tilted circle
and the spindle.

Both are generalized symmetric eigenproblems in the appropriate weighted
L^2, solved on meshes mesh/4, mesh/2 and mesh with a mesh-doubling
Richardson check (ratio must sit in [3, 5]) and Richardson-extrapolated
eigenvalues.  The tests hold the exact builders to them, and
``tests/test_reference.py`` freezes its fixtures from them.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh

from spectral_limits.geometry import Circle
from spectral_limits.reference import _fiber_multiplicity
from spectral_limits.sampling import DensitySpec


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


def weighted_circle_fd(radius: float, dens: DensitySpec, k_max: int,
                       mesh: int = 4096):
    """Eigenvalues 0..k_max of the drift Laplacian -f'' - 2 (log rho)' f'
    on the circle, with their ``(0, k)`` labels."""
    lams = _richardson(
        partial(_weighted_circle_eigs, Circle(radius), dens, k_max), mesh,
        "weighted_circle_fd")[0]
    return lams, [(0, k) for k in range(len(lams))]


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


def spindle_fd(m: int, c: float, l_max: int, k_max: int, mesh: int = 2048):
    """Eigenvalues 0..k_max of the spindle with their ``(l, j)`` labels:
    one radial problem per fiber index l <= l_max, merged in ascending
    order with fiber multiplicities."""
    entries = []
    for l in range(l_max + 1):
        vals = _richardson(
            partial(_spindle_radial_eigs, m, c, l * (l + m - 2), k_max + 2),
            mesh, f"spindle_fd l={l}")[0]
        entries += [(float(lam), (l, j)) for j, lam in enumerate(vals)
                    ] * _fiber_multiplicity(l, m)
    entries.sort()
    lams, labels = zip(*entries[:k_max + 1])
    return np.array(lams), list(labels)
