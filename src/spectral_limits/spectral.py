"""Low eigenpairs of the graph Laplacian in the vertex-weighted inner product.

The Laplacian is self-adjoint with respect to the discrete measure given by
the vertex weights, so the generalized problem is symmetrized by conjugating
with the square root of the weight matrix.  Small graphs (n <= 512) go to a
dense solver; larger ones to Lanczos (ARPACK, smallest algebraic) with the
known zero eigenpair deflated, and a deterministic start vector seeded from
a sha256 of the graph's edge pairs, read from its edge triangle a block of
rows at a time.  The operator is one CSR, written scaled from the graph's
triangle a block of rows at a time by ``graph._operator_csr``, so a solve
holds the triangle, the operator and one block's scratch, and never the
graph's own matrix.  Every edge has the same positive weight, so the
operator has an entry for each edge, and connectivity is one breadth-first
search from vertex 0 over its entries; only a disconnected graph pays for
its components, whose sizes the error names.

The Lanczos products ``B @ x`` of an operator with at least 2^20 stored
entries run as row parts of nearly equal entry counts,
k = min(usable CPUs, floor(nnz / 2^19)) of them: the caller computes one
part, and a thread pool of usable CPUs - 1 workers, made on the first
split, the others.  Each part runs the kernel that ``B @ x`` runs on a
slice of B's row pointers, into the shared ``indices`` and ``data``; the
kernel releases the GIL, and the slice copies nothing.  Each row's sum is
the same sum over the same entries in the same order, so every product,
and with it every eigenpair and residual, is bit-identical to the serial
one on any CPU count.  Only the main thread splits: with more than one
cell worker, the workers already occupy the CPUs.  The residual check's
one ``B @ vecs`` per solve stays serial.
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import _sparsetools, csgraph
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .geometry import _count, _no_vertex, _vertex_function
from .graph import WeightedGraph, _operator_csr, _symmetric_csr

__all__ = [
    "DisconnectedGraphError",
    "SolverError",
    "SpectralResult",
    "eigen_decompose",
    "volume_inner",
    "volume_norm",
]

DENSE_LIMIT = 512
_PART_ENTRIES = 1 << 19     # stored entries per row part, at least
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


class DisconnectedGraphError(ValueError):
    """The graph has more than one connected component."""


class SolverError(RuntimeError):
    """The Lanczos eigensolver did not converge."""


def volume_inner(g: WeightedGraph, phi, psi) -> float:
    """Inner product weighted by the vertex measure."""
    phi = _vertex_function(phi, g.n_vertices)
    psi = _vertex_function(psi, g.n_vertices, "psi")
    return float(np.sum(phi * psi * g.w_V))


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
    is no operator, and the components are taken on the graph's matrix.
    """
    if np.all(g.w_V > 0):
        B = _operator_csr(g)
        if _is_connected(B):
            return B
    else:
        B = _symmetric_csr(g)
    ncomp, labels = csgraph.connected_components(B, directed=False)
    if ncomp > 1:
        sizes = np.bincount(labels).tolist()
        raise DisconnectedGraphError(
            f"graph is disconnected: {ncomp} components of sizes {sizes}")
    _no_vertex(g.w_V <= 0, "nonpositive vertex weights")


def _is_connected(adj) -> bool:
    """Whether the graph of the symmetric matrix ``adj`` is connected: one
    breadth-first search from vertex 0 over its stored entries; a diagonal
    entry is ignored."""
    order = csgraph.breadth_first_order(adj, 0, directed=True,
                                        return_predecessors=False)
    return len(order) == adj.shape[0]


def _part_count(nnz: int) -> int:
    """Row parts of a product over ``nnz`` stored entries: one per usable
    CPU, each of at least ``_PART_ENTRIES`` entries."""
    return max(1, min(_CPUS, nnz // _PART_ENTRIES))


# the workers of the product parts, made on the first split; only the main
# thread splits, so nothing else reads or sets it
_POOL = None


def _part(B, x, y, lo: int, hi: int):
    """Rows lo..hi-1 of ``B @ x`` into ``y[lo:hi]``, by the private scipy
    kernel that ``B @ x`` runs for a vector, on a slice of B's row
    pointers.  Only test_spectral's split-product tests, which hold every
    part count to ``B @ x`` bit for bit, make the private kernel safe to
    use."""
    _sparsetools.csr_matvec(hi - lo, B.shape[1], B.indptr[lo:hi + 1],
                            B.indices, B.data, x, y[lo:hi])


def _product(B, x):
    """``B @ x`` for a float64 CSR B and a float64 vector x, bit for bit,
    split into ``_part_count(B.nnz)`` row parts of nearly equal entry
    counts.  The caller runs the first part and the pool the others; a
    part's exception is re-raised here once every part is done."""
    global _POOL
    # off the main thread, cell workers already occupy the CPUs: stay serial
    if threading.current_thread() is not threading.main_thread():
        return B @ x
    k = _part_count(B.nnz)
    if k < 2:
        return B @ x
    if _POOL is None:
        _POOL = ThreadPoolExecutor(max(1, _CPUS - 1))
    y = np.zeros(B.shape[0])
    bounds = np.searchsorted(B.indptr, B.indptr[-1] * np.arange(k + 1) // k)
    bounds[0], bounds[-1] = 0, B.shape[0]
    parts = [_POOL.submit(_part, B, x, y, bounds[j], bounds[j + 1])
             for j in range(1, k)]
    try:
        _part(B, x, y, bounds[0], bounds[1])
    finally:
        wait(parts)
    for part in parts:
        part.result()
    return y


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
        return _product(B, x) + (shift * (u @ x)) * u

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
    k = _count(k, "k", 0, n)
    if method == "auto":
        method = "dense" if n <= DENSE_LIMIT else "lanczos"
    if method not in ("dense", "lanczos"):
        raise ValueError(f"unknown solver method {method!r}")
    # tol <= 0, -inf included, is scipy's machine precision
    if method == "lanczos" and not tol < np.inf:
        raise ValueError(f"tol must not be NaN or inf for Lanczos, got {tol}")
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
