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

The edge search returns the edge set as the strict upper triangle of its
adjacency pattern in CSR form (row pointers and sorted int32 column
indices).  It searches one block of rows at a time, each block's kd-tree
against one on the points from the block's first row on, so a pair that
crosses blocks is found once and only one block's pairs are held; the order
and the output are those of a single search over all points.  A graph keeps
that triangle and its one positive edge weight, and counts its degrees from
it once, when it is made.  Incident edge weights, the edge list, the
spectral start vector (hashed a block of rows at a time), the Dirichlet
energies, the CSV writer and the Laplacian operator of ``spectral`` all
read the triangle.  The symmetric CSR matrix of the edge weights is built
from it on first access and kept, for the reports that read it: hop
distances, the Laplacian and random-walk matrices, smoothing and the
regularity certificates.  A Poincare ball is a subgraph: the edges with
both ends in the ball, its vertex weights, and the graph's edge weight and
eps.  One builder makes every symmetric CSR from a graph: its matrix, and
with a diagonal and a scaling, its operator 2 eps^-2 S (D - W) S, so a
graph and a ball take the same path.  It writes the final arrays one block
of triangle rows at a time, each block handing its entry (i, j) on to row j
as that row's entry below the diagonal, so no transposed copy of the
triangle is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
# the row blocks of the edge search: only one block's pairs are held at once
_EDGE_SEARCH_BLOCKS = 16
# the relative width of the band below eps in which the edge search measures
# a pair's distance again rather than take the kd-tree's
_DISTANCE_BAND = 1e-12


@dataclass(frozen=True, eq=False)
class UpperTriangle:
    """An edge set as the strict upper triangle of its adjacency pattern in
    CSR form: the edges of vertex i are (i, j) for j in
    ``indices[indptr[i]:indptr[i + 1]]``, each row's columns strictly
    increasing and above i, so row-major order is lexicographic order.
    ``build_edges`` makes it and ``WeightedGraph`` takes it as it is; its
    length is the edge count."""

    indptr: np.ndarray
    indices: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def _index_dtype(bound: int):
    """int32 if it holds every index up to ``bound``, else int64."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def _column_counts(n: int, upper: UpperTriangle) -> np.ndarray:
    """Each vertex's count among the triangle's columns, its edges to lower
    vertices: a bincount a block of rows at a time, so the indices are
    never widened to an E-long intp copy."""
    counts = np.zeros(n, dtype=np.int64)
    for r0, r1 in _row_blocks(upper.indptr):
        counts += np.bincount(upper.indices[upper.indptr[r0]:upper.indptr[r1]],
                              minlength=n)
    return counts


def _row_sums(w: float, degrees) -> np.ndarray:
    """Each vertex's sum of incident edge weights, bit for bit the
    ``adj.sum(axis=1)`` of the symmetric matrix: ``np.add.reduceat`` over
    the row's weights.  With one weight w the sum depends only on the
    degree, so it is reduced once per distinct degree of ``degrees``, the
    vertices' edge counts."""
    lengths, row = np.unique(degrees, return_inverse=True)
    sums = np.zeros(len(lengths))
    has = lengths > 0       # reduceat misreads an empty segment
    sums[has] = np.add.reduceat(np.full(lengths.sum(), w),
                                (np.cumsum(lengths) - lengths)[has])
    return sums[row]


def _symmetric_csr(g: WeightedGraph, diag=None, s=None,
                   c: float = 1.0) -> sparse.csr_matrix:
    """The symmetric CSR matrix W of the graph g, with its edge weight w at
    (i, j) and (j, i) for the edges (i, j) of its triangle.  With ``diag``
    and the scaling ``s``, the operator c S (diag(diag) - W) S with
    S = diag(s) instead: each entry is ((s_i * v) * s_j) * c for its value
    v in diag(diag) - W, ``0.0 - w`` off the diagonal, and a zero diagonal
    entry is not stored.  A vertex's column count, its edges to lower
    vertices, is its degree less its row length.

    Each row is its lower entries, then its diagonal entry, if any, then
    its upper ones, so its columns come out sorted, and the row pointers
    follow from the row and column counts.  The final arrays are then
    filled one block of triangle rows at a time, by Gustavson's permuted
    transpose: a block writes its rows' upper entries, and hands each of
    its entries (i, j) on to row j's next free lower slot, taking them in
    the order of the block's transpose, by column and then row, so every
    row's lower entries come out in row order.  The transpose is a
    counting sort with 1-byte pattern data.  Only one block's scratch is
    held beside the output, and a triangle that fits in one block takes
    one pass.
    """
    n, w = g.n_vertices, g.w_E
    upper_ptr, upper_idx = g.upper.indptr, g.upper.indices
    above = np.diff(upper_ptr)
    columns = g.degrees - above
    lengths = columns + above
    if diag is not None:
        lengths += diag != 0
    idx = _index_dtype(max(2 * len(upper_idx) + (diag is not None) * n, n))
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(lengths, out=indptr[1:])
    del lengths
    indices = np.empty(indptr[-1], dtype=idx)
    if diag is None:
        data = np.full(indptr[-1], w)
    else:
        data = np.empty(indptr[-1])
        v = 0.0 - w
    free = indptr[:-1].astype(np.int64)     # each row's next lower slot
    for r0, r1 in _row_blocks(upper_ptr):
        a, b = upper_ptr[r0], upper_ptr[r1]
        col, count = upper_idx[a:b], above[r0:r1]
        # a row's upper entries end it
        at = np.repeat(indptr[r0 + 1:r1 + 1] - upper_ptr[r0 + 1:r1 + 1], count)
        at += np.arange(a, b)
        indices[at] = col
        if diag is not None:
            t = np.repeat(s[r0:r1], count)
            t *= v
            t *= s[col]
            t *= c
            data[at] = t
            del t
        del at
        lower = sparse.csr_matrix((np.ones(b - a, dtype=np.int8), col,
                                   upper_ptr[r0:r1 + 1] - a),
                                  shape=(r1 - r0, n)).tocsc()
        handed = np.diff(lower.indptr)
        slot = np.repeat(free - lower.indptr[:-1], handed)
        slot += np.arange(len(slot))
        free += handed
        row = lower.indices
        row += r0
        indices[slot] = row
        if diag is not None:
            t = np.repeat(s, handed)
            t *= v
            t *= s[row]
            t *= c
            data[slot] = t
    if diag is not None:
        on_diag = np.flatnonzero(diag)
        at = indptr[on_diag] + columns[on_diag]
        indices[at] = on_diag
        t = s[on_diag] * diag[on_diag]
        t *= s[on_diag]
        t *= c
        data[at] = t
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def _operator_csr(g: WeightedGraph) -> sparse.csr_matrix:
    """2 eps^-2 S (D - W) S with S = diag(w_V^-1/2) and D the row sums, for
    a graph g with positive vertex weights: the arrays of
    ``diags(d) - adj``, each entry then scaled as
    ((s_i * v) * s_j) * (2 / eps**2)."""
    return _symmetric_csr(g, g.incident_edge_weight(), 1.0 / np.sqrt(g.w_V),
                          2.0 / g.epsilon**2)


class WeightedGraph:
    """Finite weighted graph (V, E, w_V, w_E, eps) held as its edge triangle.

    ``upper`` is the strict upper triangle of the edge set, an
    ``UpperTriangle`` as ``build_edges`` returns it, kept as it is, and
    ``w_E`` the one finite, positive weight of every edge, a float.
    ``degrees`` are the vertices' edge counts.

    ``weighted_adjacency``, the symmetric CSR matrix with w_E at (i, j)
    and (j, i), is built from the triangle on first access and kept; a
    spectrum alone never builds it.  ``edges`` is read back from the
    triangle on each access: the (E, 2) int64 pairs i < j in lexicographic
    order.
    """

    def __init__(self, n_vertices: int, epsilon: float, upper: UpperTriangle,
                 w_V, w_E: float, kind: str = "custom"):
        self.n_vertices = n_vertices
        self.epsilon = epsilon
        self.w_V = np.asarray(w_V, dtype=float)
        self.w_E = float(w_E)
        self.kind = kind
        if not (np.isfinite(epsilon) and epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        if len(self.w_V) != n_vertices:
            raise ValueError("w_V length does not match n_vertices")
        if not np.all(np.isfinite(self.w_V) & (self.w_V >= 0)):
            raise ValueError("w_V must be finite and nonnegative")
        if not (np.isfinite(self.w_E) and self.w_E > 0):
            raise ValueError(f"w_E must be finite and positive, got {w_E}")
        self.upper = upper
        # a vertex's edge count: its row of the triangle plus its column
        deg = np.diff(upper.indptr) + _column_counts(n_vertices, upper)
        self.degrees = deg.astype(_index_dtype(max(2 * len(upper), n_vertices)))

    @cached_property
    def weighted_adjacency(self) -> sparse.csr_matrix:
        """The symmetric CSR matrix of the edge weights, built on first
        access."""
        return _symmetric_csr(self)

    def _edge_blocks(self):
        """The edges i < j in lexicographic order, as (i, j) with int64 i
        and j, one block of rows of the triangle at a time."""
        ptr = self.upper.indptr
        for r0, r1 in _row_blocks(ptr):
            a, b = ptr[r0], ptr[r1]
            row = np.repeat(np.arange(r0, r1, dtype=np.int64),
                            np.diff(ptr[r0:r1 + 1]))
            yield row, self.upper.indices[a:b].astype(np.int64)

    def _subgraph(self, idx) -> WeightedGraph:
        """The subgraph on the sorted vertices ``idx``, numbered by position
        in ``idx``: the edges with both ends among them, their weights and
        the same eps."""
        ptr = self.upper.indptr
        lengths = ptr[idx + 1] - ptr[idx]
        ends = np.cumsum(lengths)
        row = np.repeat(np.arange(len(idx)), lengths)
        at = np.arange(ends[-1]) + np.repeat(ptr[idx] - (ends - lengths),
                                             lengths)
        local = np.full(self.n_vertices, -1, dtype=np.int64)
        local[idx] = np.arange(len(idx))
        col = local[self.upper.indices[at]]
        keep = col >= 0
        indptr = np.searchsorted(row[keep], np.arange(len(idx) + 1))
        upper = UpperTriangle(indptr, col[keep].astype(_index_dtype(len(idx))))
        return WeightedGraph(len(idx), self.epsilon, upper, self.w_V[idx],
                             self.w_E)

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) int64 array of the edges i < j, sorted lexicographically."""
        return np.concatenate([np.column_stack(ij) for ij in self._edge_blocks()]
                              + [np.empty((0, 2), dtype=np.int64)])

    def incident_edge_weight(self) -> np.ndarray:
        """Per-vertex sum of incident edge weights."""
        return _row_sums(self.w_E, self.degrees)

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


def build_edges(cloud: PointCloud, eps: float) -> UpperTriangle:
    """All pairs i < j whose embedded points lie at Euclidean distance
    strictly below eps, as the ``UpperTriangle`` of the graph they make:
    row pointers and sorted int32 column indices.

    Its row-major order is the lexicographic order of the pairs, by i and
    then j; the spectral start vector hashes the pairs in that order and
    ``save_graph_csv`` writes them in it, so the order is part of the
    output.  The search runs one block of rows [r0, r1) at a time, so only
    that block's pairs are held: a kd-tree on the block's points is searched
    against one on the points from r0 on, so a pair that crosses blocks is
    found once, from its lower row.  The block's pairs with j > i are
    held to the strict bound: the tree's own distance decides a pair closer
    than eps (1 - 1e-12), and a pair in the band up to eps is measured
    again as ``np.linalg.norm``.  They are sorted by the key ``i * n + j``;
    the block yields its row counts and, as the remainders, its column
    indices.  The counts' cumulative sum is the row pointers and the joined
    columns the indices: the same pairs, order and dtypes as one search over
    all points.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    x, n = cloud.embedded, cloud.n
    idx = _index_dtype(n)
    sure = eps * (1.0 - _DISTANCE_BAND)
    counts, columns = [np.zeros(1, dtype=np.int64)], [np.empty(0, dtype=idx)]
    step = max(1, -(-n // _EDGE_SEARCH_BLOCKS))
    for r0 in range(0, n, step):
        ahead = x[r0:]
        rows = min(step, n - r0)
        found = _search_tree(ahead[:rows]).sparse_distance_matrix(
            _search_tree(ahead), eps, output_type="ndarray")
        later = found["j"] > found["i"]
        i, j, d = found["i"][later], found["j"][later], found["v"][later]
        del found, later
        # the tree's distance is the norm's to a few ulps: a pair far enough
        # inside eps is kept as it is, and only the band below eps is
        # measured again
        keep = d < sure
        band = np.flatnonzero(~keep)
        keep[band] = _strictly_within(ahead, i[band], j[band], eps)
        del d, band
        i, j = i[keep], j[keep]
        counts.append(np.bincount(i, minlength=rows))
        i *= n
        i += j
        del j
        i.sort()
        np.remainder(i, n, out=i)
        i += r0
        columns.append(i.astype(idx))
        del i
    return UpperTriangle(np.cumsum(np.concatenate(counts)),
                         np.concatenate(columns))


def _search_tree(points) -> cKDTree:
    """A kd-tree for the edge search.  Each block builds two, so they are
    the faster-built kind: sliding-midpoint splits, node boxes not shrunk
    to the points.  A pair's distance test does not depend on the tree's
    shape."""
    return cKDTree(points, balanced_tree=False, compact_nodes=False)


def _strictly_within(x, i, j, eps: float) -> np.ndarray:
    """Mask of the pairs with ``np.linalg.norm(x[i] - x[j]) < eps``, the
    norm taken a block of pairs at a time, so no (E, d) gathers are built."""
    keep = np.empty(len(i), dtype=bool)
    for a in range(0, len(i), _BLOCK_ENTRIES):
        diff = np.take(x, i[a:a + _BLOCK_ENTRIES], axis=0)
        diff -= np.take(x, j[a:a + _BLOCK_ENTRIES], axis=0)
        keep[a:a + len(diff)] = np.linalg.norm(diff, axis=1) < eps
    return keep


def _edge_scale(n: int, m: int, eps: float) -> float:
    return n * (n - 1) * unit_ball_volume(m) * eps**m


def gamma_m_eps(cloud: PointCloud, eps: float) -> WeightedGraph:
    """Volume-normalized graph: w_V = 1/n, constant edge weight."""
    n = cloud.n
    upper = build_edges(cloud, eps)
    scale = _edge_scale(n, cloud.manifold.m, eps)
    return WeightedGraph(
        n_vertices=n,
        epsilon=eps,
        upper=upper,
        w_V=np.full(n, 1.0 / n),
        w_E=cloud.manifold.total_volume / scale,
        kind="gamma_m",
    )


def gamma_N_eps(cloud: PointCloud, eps: float) -> WeightedGraph:
    """Degree-weighted (random-walk) graph; needs no knowledge of vol(M)."""
    n = cloud.n
    upper = build_edges(cloud, eps)
    scale = _edge_scale(n, cloud.manifold.m, eps)
    g = WeightedGraph(
        n_vertices=n,
        epsilon=eps,
        upper=upper,
        w_V=np.zeros(n),
        w_E=1.0 / scale,
        kind="gamma_N",
    )
    g.w_V = g.degrees / scale      # the degrees come from the triangle
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

    def term(i, j):
        diff = (phi[i] - phi[j]) / g.epsilon
        return diff**2 * g.w_E

    return 2.0 * _edge_sum(g, term)


def _edge_sum(g: WeightedGraph, term) -> float:
    """``np.sum`` over the edges of ``term(i, j)``, one value per edge.

    The terms are written into one E-long array a block of rows at a time,
    so the sum is NumPy's over the whole array, as if the terms had been
    computed in one pass over the edge list.
    """
    terms = np.empty(len(g.upper))
    a = 0
    for i, j in g._edge_blocks():
        terms[a:a + len(i)] = term(i, j)
        a += len(i)
    return float(np.sum(terms))


# ---------------------------------------------------------------------------
# serialization


def save_graph_csv(g: WeightedGraph, edge_path, vertex_path):
    """Edge list `i,j,w_E` and vertex list `i,w_V,deg`, with a header line.

    The edge rows are read from the graph's triangle, i < j, sorted, and
    written a block of rows at a time; the one weight is formatted once."""
    header = f"# eps={g.epsilon:.17g} kind={g.kind} n={g.n_vertices}\n"
    with open(edge_path, "w") as fh:
        fh.write(header)
        fh.write("i,j,w_E\n")
        tail = f",{g.w_E:.17g}\n"
        for i, j in g._edge_blocks():
            fh.writelines(f"{a},{b}{tail}"
                          for a, b in zip(i.tolist(), j.tolist()))
    with open(vertex_path, "w") as fh:
        fh.write(header)
        fh.write("i,w_V,deg\n")
        for i in range(g.n_vertices):
            fh.write(f"{i},{g.w_V[i]:.17g},{g.degrees[i]}\n")
