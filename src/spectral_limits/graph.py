"""Weighted epsilon-neighborhood graphs and their Laplacian.

Two constructions are provided.  Both connect sample points whose Euclidean
chord distance is strictly below epsilon (its gap to geodesic distance is
the distortion integral ``distortion.s_eps``); they differ in the weights:

* ``gamma_m``: vertex weight 1/n, constant edge weight
  vol(M) / (n (n-1) omega_m eps^m)  (needs the total volume),
* ``gamma_N``: vertex weight deg / (n (n-1) omega_m eps^m), constant edge
  weight 1 / (n (n-1) omega_m eps^m)  (volume-free, random-walk flavor).

The Laplacian acts by
``(L phi)(x) = 2 / (w_V(x) eps^2) * sum_{xy in E} (phi(x) - phi(y)) w_E(xy)``
and is self-adjoint, nonnegative in the inner product weighted by w_V.

A graph is one symmetric CSR matrix of its edge weights, built once,
straight from the sorted edge pairs; it keeps no other copy of its edges.
The Laplacian, the random-walk matrix, hop distances, the connectivity
check (one breadth-first search), the spectral start vector (hashed from
the matrix a block of rows at a time) and the Dirichlet forms of the
regularity certificates all read it, and the edge list and edge weights
are views derived from its upper triangle on demand.  A zero-weight edge
is stored as an explicit zero, so it is an edge for hops and components
but carries no Dirichlet energy.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .geometry import unit_ball_volume
from .sampling import PointCloud

__all__ = [
    "WeightedGraph",
    "build_edges",
    "gamma_m_eps",
    "gamma_N_eps",
    "laplacian_apply",
    "random_walk_matrix",
    "dirichlet_energy",
    "save_graph_csv",
]

# the scratch bound of the blocked passes: entries of a CSR row block, or
# pairs of a distance re-check block
_BLOCK_ENTRIES = 1 << 16


def _strictly_increasing(i, j) -> bool:
    """Whether the pairs (i, j) are in strictly increasing lexicographic
    order."""
    later = (i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))
    return bool(np.all(later))


def _symmetric_csr(n: int, i, j, w) -> sparse.csr_matrix:
    """The symmetric CSR matrix with w at (i, j) and (j, i), for edges
    i < j in strictly increasing lexicographic order.

    The upper triangle is the edges themselves, row by row; the lower one
    is its transpose, a counting sort that keeps explicit zeros.  Each row
    is its lower entries followed by its upper ones, so its columns come
    out sorted, and nothing edge-sized is built twice over.
    """
    idx = np.int32 if max(2 * len(i), n) <= np.iinfo(np.int32).max else np.int64
    upper_ptr = np.searchsorted(i, np.arange(n + 1)).astype(idx)
    lower = sparse.csr_matrix((w, j.astype(idx), upper_ptr),
                              shape=(n, n)).T.tocsr()
    indptr = upper_ptr + lower.indptr
    counts = np.column_stack([np.diff(lower.indptr), np.diff(upper_ptr)])
    is_lower = np.repeat(np.tile([True, False], n), counts.ravel())
    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1])
    indices[is_lower], data[is_lower] = lower.indices, lower.data
    del lower
    is_upper = np.logical_not(is_lower, out=is_lower)
    indices[is_upper], data[is_upper] = j, w
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


class WeightedGraph:
    """Finite weighted graph (V, E, w_V, w_E, eps) held as one sparse matrix.

    ``weighted_adjacency`` is the graph: the symmetric CSR matrix with w_E
    at (i, j) and (j, i), built once at construction from ``edges`` and
    ``w_E``, which are then dropped.  ``degrees`` are its row lengths.  A
    zero-weight edge stays in it as an explicit zero, so it still counts
    as an edge for degrees, hop distances and connected components.  It
    carries no Dirichlet energy, so the Poincare constant drops it before
    it splits a ball into components.

    ``edges`` and ``w_E`` are read back from the matrix's upper triangle
    on each access, never stored: the (E, 2) int64 pairs i < j in
    lexicographic order, and their weights.
    """

    def __init__(self, n_vertices: int, epsilon: float, edges, w_V, w_E,
                 kind: str = "custom"):
        self.n_vertices = n_vertices
        self.epsilon = epsilon
        self.w_V = np.asarray(w_V, dtype=float)
        self.kind = kind
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        w = np.asarray(w_E, dtype=float)
        if not (np.isfinite(epsilon) and epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        if len(self.w_V) != n_vertices:
            raise ValueError("w_V length does not match n_vertices")
        if len(w) != len(edges):
            raise ValueError("w_E length does not match edge count")
        i, j = edges[:, 0], edges[:, 1]
        if np.any(i == j):
            raise ValueError("self-loops are not allowed")
        for name, x in (("w_V", self.w_V), ("w_E", w)):
            if not np.all(np.isfinite(x) & (x >= 0)):
                raise ValueError(f"{name} must be finite and nonnegative")
        if len(edges) and (edges.min() < 0 or edges.max() >= n_vertices):
            raise ValueError("edge endpoints must be vertices 0..n-1")
        if not (np.all(i < j) and _strictly_increasing(i, j)):
            # orient each edge i < j and sort; a repeated edge, in either
            # orientation, then sits next to its copy
            i, j = np.minimum(i, j), np.maximum(i, j)
            order = np.lexsort((j, i))
            i, j, w = i[order], j[order], w[order]
            if not _strictly_increasing(i, j):
                raise ValueError("duplicate edges are not allowed")
        self.weighted_adjacency = _symmetric_csr(n_vertices, i, j, w)
        self.degrees = np.diff(self.weighted_adjacency.indptr)

    def _edge_blocks(self):
        """The edges i < j in lexicographic order, as (i, j, w) with int64
        i and j, one block of rows of the matrix's upper triangle at a
        time; its indices are sorted, so row-major order is that order."""
        wa = self.weighted_adjacency
        for r0, r1 in _row_blocks(wa.indptr):
            a, b = wa.indptr[r0], wa.indptr[r1]
            row = np.repeat(np.arange(r0, r1, dtype=np.int64),
                            self.degrees[r0:r1])
            col = wa.indices[a:b]
            upper = col > row
            yield row[upper], col[upper].astype(np.int64), wa.data[a:b][upper]

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) int64 array of the edges i < j, sorted lexicographically."""
        return np.concatenate([np.column_stack([i, j])
                               for i, j, _ in self._edge_blocks()]
                              + [np.empty((0, 2), dtype=np.int64)])

    @property
    def w_E(self) -> np.ndarray:
        """(E,) edge weights, in the order of ``edges``."""
        return np.concatenate([w for _, _, w in self._edge_blocks()]
                              + [np.empty(0)])

    def incident_edge_weight(self) -> np.ndarray:
        """Per-vertex sum of incident edge weights."""
        return np.asarray(self.weighted_adjacency.sum(axis=1)).ravel()

    def total_volume(self) -> float:
        return float(np.sum(self.w_V))


def _row_blocks(indptr):
    """Row ranges (r0, r1) covering a CSR matrix in order, each holding at
    most ``_BLOCK_ENTRIES`` stored entries, or a single row."""
    n = len(indptr) - 1
    r0 = 0
    while r0 < n:
        r1 = int(np.searchsorted(indptr, indptr[r0] + _BLOCK_ENTRIES,
                                 "right")) - 1
        r1 = min(max(r1, r0 + 1), n)
        yield r0, r1
        r0 = r1


# ---------------------------------------------------------------------------
# construction


def build_edges(cloud: PointCloud, eps: float) -> np.ndarray:
    """All pairs i < j whose embedded points lie at Euclidean distance
    strictly below eps, as an (E, 2) int64 array.

    The array is C-contiguous and its rows are sorted lexicographically, by
    i and then j; the spectral start vector hashes these pairs and
    ``save_graph_csv`` writes them, so the order is part of the output.
    The kd-tree pairs within eps are re-checked against the strict bound
    and sorted by the single key ``i * n + j``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = cloud.embedded
    # the tree returns each pair once, with i < j
    pairs = cKDTree(x).query_pairs(r=eps, output_type="ndarray")
    keep = _strictly_within(x, pairs, eps)
    n = cloud.n
    key = pairs[:, 0].astype(np.int64)
    key *= n
    key += pairs[:, 1]
    del pairs
    key = key[keep]
    key.sort()
    edges = np.empty((len(key), 2), dtype=np.int64)
    np.divmod(key, n, out=(edges[:, 0], edges[:, 1]))
    return edges


def _strictly_within(x, pairs, eps: float) -> np.ndarray:
    """Mask of the pairs with ``np.linalg.norm(x[i] - x[j]) < eps``, the
    norm taken a block of pairs at a time, so no (E, d) gathers are built."""
    keep = np.empty(len(pairs), dtype=bool)
    for a in range(0, len(pairs), _BLOCK_ENTRIES):
        p = pairs[a:a + _BLOCK_ENTRIES]
        diff = np.take(x, p[:, 0], axis=0)
        diff -= np.take(x, p[:, 1], axis=0)
        keep[a:a + len(p)] = np.linalg.norm(diff, axis=1) < eps
    return keep


def _edge_scale(n: int, m: int, eps: float) -> float:
    return n * (n - 1) * unit_ball_volume(m) * eps**m


def gamma_m_eps(cloud: PointCloud, eps: float) -> WeightedGraph:
    """Volume-normalized graph: w_V = 1/n, constant edge weight."""
    n = cloud.n
    edges = build_edges(cloud, eps)
    scale = _edge_scale(n, cloud.manifold.m, eps)
    return WeightedGraph(
        n_vertices=n,
        epsilon=eps,
        edges=edges,
        w_V=np.full(n, 1.0 / n),
        w_E=np.broadcast_to(cloud.manifold.total_volume / scale,
                            len(edges)),
        kind="gamma_m",
    )


def gamma_N_eps(cloud: PointCloud, eps: float) -> WeightedGraph:
    """Degree-weighted (random-walk) graph; needs no knowledge of vol(M)."""
    n = cloud.n
    edges = build_edges(cloud, eps)
    scale = _edge_scale(n, cloud.manifold.m, eps)
    g = WeightedGraph(
        n_vertices=n,
        epsilon=eps,
        edges=edges,
        w_V=np.zeros(n),
        w_E=np.broadcast_to(1.0 / scale, len(edges)),
        kind="gamma_N",
    )
    g.w_V = g.degrees / scale      # the degrees come from the graph's CSR
    return g


# ---------------------------------------------------------------------------
# operators


def laplacian_apply(g: WeightedGraph, phi: np.ndarray) -> np.ndarray:
    """Apply the graph Laplacian to a vertex function, or to each column of
    an (n, k) block of them."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape[0] != g.n_vertices:
        raise ValueError("function length does not match vertex count")
    bad = np.nonzero(g.w_V == 0)[0]
    if len(bad):
        raise ValueError(f"vertices with zero weight w_V: {bad[:10].tolist()}")
    wa = g.weighted_adjacency
    dw = g.incident_edge_weight()
    scale = 2.0 / (g.w_V * g.epsilon**2)
    if phi.ndim == 2:
        dw, scale = dw[:, None], scale[:, None]
    out = dw * phi - wa @ phi
    return scale * out


def random_walk_matrix(cloud: PointCloud, eps: float) -> sparse.csr_matrix:
    """The scaled random-walk Laplacian 2 eps^-2 (I - D^-1 A) as sparse CSR.

    A is the 0/1 pattern of the gamma_N graph's matrix (zero diagonal, so D
    counts true neighbors); its action coincides with that graph's Laplacian.
    """
    g = gamma_N_eps(cloud, eps)
    n = cloud.n
    wa = g.weighted_adjacency
    A = sparse.csr_matrix((np.ones(wa.nnz), wa.indices, wa.indptr), shape=(n, n))
    deg = g.degrees
    if np.any(deg == 0):
        raise ValueError(
            f"zero-degree rows at {np.nonzero(deg == 0)[0][:10].tolist()}"
        )
    Dinv = sparse.diags(1.0 / deg)
    eye = sparse.identity(n, format="csr")
    return (2.0 / eps**2) * (eye - Dinv @ A)


# ---------------------------------------------------------------------------
# energy


def dirichlet_energy(g: WeightedGraph, phi: np.ndarray) -> float:
    """Double-counted edge energy sum_x sum_{y~x} ((phi_x-phi_y)/eps)^2 w_E."""
    phi = np.asarray(phi, dtype=float)
    edges, w_E = g.edges, g.w_E
    if len(edges) == 0:
        return 0.0
    diff = (phi[edges[:, 0]] - phi[edges[:, 1]]) / g.epsilon
    return float(2.0 * np.sum(diff**2 * w_E))


# ---------------------------------------------------------------------------
# serialization


def save_graph_csv(g: WeightedGraph, edge_path, vertex_path):
    """Edge list `i,j,w_E` and vertex list `i,w_V,deg`, with a header line.

    The edge rows are read from the graph's matrix: i < j, sorted."""
    header = f"# eps={g.epsilon:.17g} kind={g.kind} n={g.n_vertices}\n"
    with open(edge_path, "w") as fh:
        fh.write(header)
        fh.write("i,j,w_E\n")
        for (i, j), w in zip(g.edges, g.w_E):
            fh.write(f"{i},{j},{w:.17g}\n")
    with open(vertex_path, "w") as fh:
        fh.write(header)
        fh.write("i,w_V,deg\n")
        for i in range(g.n_vertices):
            fh.write(f"{i},{g.w_V[i]:.17g},{g.degrees[i]}\n")
