"""Low eigenpairs of the graph Laplacian in the vertex-weighted inner product.

The Laplacian is self-adjoint with respect to the discrete measure given by
the vertex weights, so the generalized problem is symmetrized by conjugating
with the square root of the weight matrix.  Small graphs (n <= 512) go to a
dense solver; larger ones to shift-free Lanczos (ARPACK, smallest algebraic)
with a deterministic start vector derived from a hash of the graph.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse import csgraph
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .graph import WeightedGraph, dirichlet_energy, laplacian_apply

__all__ = [
    "DisconnectedGraphError",
    "SolverError",
    "SpectralResult",
    "eigen_decompose",
    "rayleigh_quotient",
    "eigenvalue_estimate",
    "volume_inner",
    "volume_norm",
]

DENSE_LIMIT = 512


class DisconnectedGraphError(ValueError):
    """The graph has more than one connected component."""


class SolverError(RuntimeError):
    """The Lanczos eigensolver did not converge."""


def volume_inner(g: WeightedGraph, phi, psi) -> float:
    """Inner product weighted by the vertex measure."""
    return float(np.sum(np.asarray(phi) * np.asarray(psi) * g.w_V))


def volume_norm(g: WeightedGraph, phi) -> float:
    return float(np.sqrt(max(volume_inner(g, phi, phi), 0.0)))


@dataclass
class SpectralResult:
    """Ascending eigenvalues with weight-orthonormal eigenvectors."""

    eigenvalues: np.ndarray        # (k+1,)
    eigenvectors: np.ndarray       # (n, k+1), columns orthonormal in w_V
    residuals: np.ndarray          # (k+1,)
    cluster_ids: np.ndarray        # (k+1,) int; equal id = one near-degenerate cluster
    solver: str
    tolerance: float

    def cluster(self, cid: int) -> np.ndarray:
        return np.nonzero(self.cluster_ids == cid)[0]


def _symmetrized_operator(g: WeightedGraph):
    w = g.w_V
    wa = g.weighted_adjacency()
    dw = np.asarray(wa.sum(axis=1)).ravel()
    lw = sparse.diags(dw) - wa
    s = 1.0 / np.sqrt(w)
    B = sparse.diags(s) @ lw @ sparse.diags(s)
    return (2.0 / g.epsilon**2) * B.tocsr()


def _start_vector(g: WeightedGraph) -> np.ndarray:
    h = hashlib.sha256()
    h.update(np.int64(g.n_vertices).tobytes())
    h.update(np.float64(g.epsilon).tobytes())
    h.update(np.ascontiguousarray(g.edges).tobytes())
    seed = int.from_bytes(h.digest()[:8], "little")
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal(g.n_vertices)
    return v / np.linalg.norm(v)


def _assign_clusters(eigenvalues: np.ndarray) -> np.ndarray:
    scale = max(float(eigenvalues[-1]), 1.0)
    ids = np.zeros(len(eigenvalues), dtype=np.int64)
    for i in range(1, len(eigenvalues)):
        same = eigenvalues[i] - eigenvalues[i - 1] < 1e-6 * scale
        ids[i] = ids[i - 1] if same else ids[i - 1] + 1
    return ids


def eigen_decompose(g: WeightedGraph, k: int, tol: float = 1e-10,
                    method: str = "auto") -> SpectralResult:
    """The k+1 smallest Laplacian eigenpairs, orthonormal in the w_V measure.

    ``method`` picks the solver: "dense" or "lanczos", with "auto" choosing
    dense below 513 vertices.
    """
    n = g.n_vertices
    if k >= n:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    # before the weight check: an isolated vertex of gamma_N has w_V = 0
    ncomp, labels = csgraph.connected_components(g.adjacency(), directed=False)
    if ncomp > 1:
        sizes = np.bincount(labels).tolist()
        raise DisconnectedGraphError(
            f"graph is disconnected: {ncomp} components of sizes {sizes}")
    if np.any(g.w_V <= 0):
        bad = np.nonzero(g.w_V <= 0)[0]
        raise ValueError(f"nonpositive vertex weights at {bad[:10].tolist()}")
    if method == "auto":
        method = "dense" if n <= DENSE_LIMIT else "lanczos"
    if method not in ("dense", "lanczos"):
        raise ValueError(f"unknown solver method {method!r}")

    B = _symmetrized_operator(g)
    if method == "dense":
        vals, vecs = eigh(B.toarray())
        vals, vecs = vals[: k + 1], vecs[:, : k + 1]
        solver = "dense"
    else:
        v0 = _start_vector(g)
        try:
            vals, vecs = eigsh(
                B, k=k + 1, which="SA", v0=v0, tol=tol,
                maxiter=max(100 * n, 10000), ncv=min(n - 1, max(4 * (k + 1), 40)),
            )
        except ArpackNoConvergence as exc:
            raise SolverError(
                f"Lanczos did not converge: got {len(exc.eigenvalues)} of {k + 1} "
                f"eigenvalues"
            ) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        solver = "lanczos"

    # back to original coordinates; columns orthonormal in the w_V measure
    phi = vecs / np.sqrt(g.w_V)[:, None]
    resid = np.empty(k + 1)
    for j in range(k + 1):
        r = laplacian_apply(g, phi[:, j]) - vals[j] * phi[:, j]
        resid[j] = volume_norm(g, r)
    return SpectralResult(
        eigenvalues=np.asarray(vals, dtype=float),
        eigenvectors=phi,
        residuals=resid,
        cluster_ids=_assign_clusters(np.asarray(vals, dtype=float)),
        solver=solver,
        tolerance=tol,
    )


def rayleigh_quotient(g: WeightedGraph, phi) -> float:
    """Dirichlet energy over the squared weighted norm."""
    phi = np.asarray(phi, dtype=float)
    denom = volume_inner(g, phi, phi)
    if denom <= 0:
        raise ValueError("rayleigh_quotient of a zero function")
    return dirichlet_energy(g, phi) / denom


def eigenvalue_estimate(spectral: SpectralResult, k: int, m: int) -> float:
    """Continuum eigenvalue estimator (m+2) * lambda_k(Gamma)."""
    return (m + 2) * float(spectral.eigenvalues[k])
