"""Low eigenpairs of the graph Laplacian in the vertex-weighted inner product.

The Laplacian is self-adjoint with respect to the discrete measure given by
the vertex weights, so the generalized problem is symmetrized by conjugating
with the square root of the weight matrix.  Small graphs (n <= 512) go to a
dense solver; larger ones to Lanczos (ARPACK, smallest algebraic) with the
known zero eigenpair deflated, and a deterministic start vector seeded from
a sha256 of the graph's edge pairs, read from its edge triangle a block of
rows at a time.  The operator is one CSR, written scaled from the graph's
triangle a block of rows at a time by the builder that also makes each
Poincare ball's operator from its subgraph, so a solve holds the triangle,
the operator and one block's scratch, and never the graph's own matrix.
Every edge has the same positive weight, so the operator has an entry for
each edge, and connectivity is one breadth-first search from vertex 0 over
its entries; only a disconnected graph pays for its components, whose
sizes the error names.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse import csgraph
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .graph import WeightedGraph, _operator_csr

__all__ = [
    "DisconnectedGraphError",
    "SolverError",
    "SpectralResult",
    "eigen_decompose",
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
    """Ascending eigenvalues with weight-orthonormal eigenvectors.

    ``residuals[j]`` is ||B psi_j - lam_j psi_j||_2 for the symmetrized
    operator B and its unit eigenvector psi_j = sqrt(w_V) phi_j, which
    equals the w_V-norm of L phi_j - lam_j phi_j.
    """

    eigenvalues: np.ndarray        # (k+1,)
    eigenvectors: np.ndarray       # (n, k+1), columns orthonormal in w_V
    residuals: np.ndarray          # (k+1,)
    solver: str


def _symmetrized_operator(g: WeightedGraph):
    """2 eps^-2 S (D - W) S with S = diag(w_V^-1/2), as
    ``graph._operator_csr`` builds it, for a connected graph g with
    positive vertex weights.

    Connectivity is checked before the vertex weights, since an isolated
    vertex of gamma_N has w_V = 0.  With a nonpositive vertex weight there
    is no operator, and the components are taken on the triangle itself.
    """
    n, upper = g.n_vertices, g.upper
    if np.all(g.w_V > 0):
        B = _operator_csr(g)
        if _is_connected(B):
            return B
    else:
        B = sparse.csr_matrix((np.ones(len(upper), dtype=np.int8),
                               upper.indices, upper.indptr), shape=(n, n))
    ncomp, labels = csgraph.connected_components(B, directed=False)
    if ncomp > 1:
        sizes = np.bincount(labels).tolist()
        raise DisconnectedGraphError(
            f"graph is disconnected: {ncomp} components of sizes {sizes}")
    bad = np.nonzero(g.w_V <= 0)[0]
    raise ValueError(f"nonpositive vertex weights at {bad[:10].tolist()}")


def _is_connected(adj) -> bool:
    """Whether the graph of the symmetric matrix ``adj`` is connected: one
    breadth-first search from vertex 0 over its stored entries; a diagonal
    entry is ignored."""
    order = csgraph.breadth_first_order(adj, 0, directed=True,
                                        return_predecessors=False)
    return len(order) == adj.shape[0]


def _lanczos_above_null(B, w_V, k: int, v0, tol: float):
    """Eigenvalues ``[0, lam_1..lam_k]`` of B and their eigenvectors.

    B is ``_symmetrized_operator`` of a connected graph, so its kernel is
    spanned by u = sqrt(w_V / sum w_V).  Lanczos runs on B + shift u u^T,
    where shift = 2 max diag(B) bounds the top eigenvalue (Gershgorin on
    the similar matrix W^-1 L), so its k smallest eigenvalues are
    lam_1..lam_k.
    """
    n = B.shape[0]
    u = np.sqrt(w_V / np.sum(w_V))
    if k == 0:
        return np.zeros(1), u[:, None]
    shift = 2.0 * float(np.max(B.diagonal()))

    def matvec(x):
        x = np.ravel(x)
        return B @ x + (shift * (u @ x)) * u

    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    try:
        vals, vecs = eigsh(op, k=k, which="SA", v0=v0, tol=tol,
                           maxiter=max(100 * n, 10000),
                           ncv=min(n - 1, max(4 * (k + 1), 40)))
    except ArpackNoConvergence as exc:
        raise SolverError(
            f"Lanczos did not converge: got {len(exc.eigenvalues)} of {k + 1} "
            f"eigenvalues"
        ) from exc
    order = np.argsort(vals)
    return (np.r_[0.0, vals[order]],
            np.column_stack([u, vecs[:, order]]))


def _start_vector(g: WeightedGraph) -> np.ndarray:
    """Unit normal vector seeded from the sha256 of n, eps and the (E, 2)
    int64 edge pairs i < j in lexicographic order, hashed from the edge
    triangle a block of rows at a time."""
    h = hashlib.sha256()
    h.update(np.int64(g.n_vertices).tobytes())
    h.update(np.float64(g.epsilon).tobytes())
    for i, j in g._edge_blocks():
        h.update(np.column_stack([i, j]))
    seed = int.from_bytes(h.digest()[:8], "little")
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal(g.n_vertices)
    return v / np.linalg.norm(v)


def eigen_decompose(g: WeightedGraph, k: int, tol: float = 1e-10,
                    method: str = "auto") -> SpectralResult:
    """The k+1 smallest Laplacian eigenpairs, orthonormal in the w_V measure.

    ``method`` picks the solver: "dense" or "lanczos", with "auto" choosing
    dense below 513 vertices.
    """
    n = g.n_vertices
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    if method == "auto":
        method = "dense" if n <= DENSE_LIMIT else "lanczos"
    if method not in ("dense", "lanczos"):
        raise ValueError(f"unknown solver method {method!r}")
    B = _symmetrized_operator(g)

    if method == "dense":
        vals, vecs = eigh(B.toarray())
        vals, vecs = vals[: k + 1], vecs[:, : k + 1]
    else:
        vals, vecs = _lanczos_above_null(B, g.w_V, k, _start_vector(g), tol)

    resid = np.linalg.norm(B @ vecs - vals * vecs, axis=0)
    return SpectralResult(
        eigenvalues=np.asarray(vals, dtype=float),
        # back to original coordinates; columns orthonormal in the w_V measure
        eigenvectors=vecs / np.sqrt(g.w_V)[:, None],
        residuals=resid,
        solver=method,
    )
