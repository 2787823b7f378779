"""Empirical regularity certificates for weighted graphs.

The quantities mirror the structural hypotheses under which graph
eigenfunctions admit L^p bounds: a volume-doubling constant across
quantized radius breakpoints, a sharp sampled Poincare constant, a local
almost-regularity ratio, a neighbor-averaging (smoothing) operator, a
Nash-type fitted constant, and the Moser-shape check on eigenvector
p-norm ratios with the exact graph diameter.  All radii live on the
breakpoints (k + 1/2) * eps, where the quantized graph metric makes ball
membership exact.  Every ball comes from a bit-parallel BFS, 64 sources
per uint64 word, over the stored entries of the graph's matrix.  The
doubling constant sums its ball volumes level by level as the search
runs, and stops a block of sources once no larger radius can raise it;
a relative slack of 1e-9 keeps the stop exact.  Each ball's Poincare
constant is exact, from the first nonzero eigenvalue of
the ball's Laplacian, in memory that grows with its edge count, and the
ball's operator is cut from the graph's, which is built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh

from .geometry import _count, _exponent, _no_vertex, _nonnegative, \
    _vertex_function
from .graph import WeightedGraph, _ball_operator, _operator_csr, \
    dirichlet_energy
from .spectral import DENSE_LIMIT, SpectralResult, _lanczos_above_null

__all__ = [
    "RegularityCertificate",
    "weighted_p_norm",
    "doubling_constant",
    "poincare_constant",
    "almost_regularity",
    "smoothing_apply",
    "nash_diagnostic",
    "moser_ratio",
    "moser_check",
    "graph_diameter",
    "certify",
]


# ---------------------------------------------------------------------------
# norms


def weighted_p_norm(g: WeightedGraph, phi, p) -> float:
    """Volume-normalized p-norm of a vertex function.

    ``(1/vol(V) * sum_x |phi(x)|^p w_V(x))^(1/p)``; the sup norm for
    p = inf.
    """
    phi = _vertex_function(phi, g.n_vertices)
    p = _exponent(p, inf=True)
    if p == np.inf:
        return float(np.max(np.abs(phi)))
    vol = float(np.sum(g.w_V))
    if vol <= 0:
        raise ValueError("the graph has zero volume")
    return float((np.sum(np.abs(phi) ** p * g.w_V) / vol) ** (1.0 / p))


# the k and p of every Moser ratio |||phi_k|||_p / |||phi_k|||_1 that
# ``certify`` measures; the moser report writes every p of MOSER_P
MOSER_K = (1, 2)
MOSER_P = (2, 4, 8, np.inf)

# BFS sources per block, one per bit of a uint64 word: a block holds
# _HOP_BLOCK x n hop counts, never n x n
_HOP_BLOCK = 64

_BITS = np.uint64(1) << np.arange(_HOP_BLOCK, dtype=np.uint64)

# ball centers sampled by ``poincare_constant``
_POINCARE_CENTERS = 8


def _word_bits(words) -> np.ndarray:
    """(n, 64) 0/1 array: entry [v, k] is bit k of ``words[v]``."""
    bytes_ = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(bytes_, bitorder="little").reshape(-1, _HOP_BLOCK)


def _bfs_levels(g: WeightedGraph, src):
    """The words of the vertices first reached at each BFS level from
    ``src``, level 0 being the sources; bit k is source k.

    One bit-parallel BFS of up to 64 sources (multi-source BFS, Then et
    al., PVLDB 2014): a level ORs each vertex's neighbours' frontier words
    and keeps the bits the vertex has not yet seen.  The search reads only
    the CSR structure.  Each yielded array is fresh: the caller may keep it.
    """
    adj = g.weighted_adjacency
    n = g.n_vertices
    # reduceat misreads an empty segment: OR over the nonempty rows only
    has = np.diff(adj.indptr) > 0
    starts = adj.indptr[:-1][has]
    # gathering through int32 indices converts them on every level
    indices = adj.indices.astype(np.intp)
    front = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(front, src, _BITS[:len(src)])
    seen = front.copy()
    while True:
        yield front
        nxt = np.zeros(n, dtype=np.uint64)
        nxt[has] = np.bitwise_or.reduceat(front[indices], starts)
        nxt &= ~seen
        if not nxt.any():
            return
        seen |= nxt
        front = nxt


def _hop_blocks(g: WeightedGraph, sources):
    """(sources, hop rows) per block of ``sources``; inf when unreachable.

    A vertex's hop count from source k is the number of ``_bfs_levels``
    after which bit k of its word is still unseen.
    """
    n = g.n_vertices
    sources = np.asarray(sources, dtype=np.int64)
    for start in range(0, len(sources), _HOP_BLOCK):
        src = sources[start:start + _HOP_BLOCK]
        b = len(src)
        seen = np.zeros(n, dtype=np.uint64)
        count = np.zeros((n, _HOP_BLOCK), dtype=np.uint32)
        for new in _bfs_levels(g, src):
            seen |= new
            count += _word_bits(~seen)
        hops = count[:, :b].T.astype(float)
        hops[_word_bits(seen)[:, :b].T == 0] = np.inf
        yield src, hops


# ---------------------------------------------------------------------------
# doubling


def _pick_centers(g: WeightedGraph, count: int, seed: int) -> np.ndarray:
    """Every vertex when ``count >= n``, else a sorted sample of ``count``."""
    n = g.n_vertices
    if count >= n:
        return np.arange(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.sort(rng.choice(n, size=count, replace=False))


def _max_ratio(q: float, outer, inner) -> float:
    """max(q, largest outer / inner over the entries with inner > 0)."""
    ok = inner > 0
    return max(q, float(np.max(outer[ok] / inner[ok], initial=q)))


def doubling_constant(g: WeightedGraph, seed: int = 0) -> float:
    """Worst ratio vol(B(x, 2r)) / vol(B(x, r)) over breakpoint radii r > eps.

    Every vertex is a centre up to n = 2000, and 200 sampled ones above.
    Each block of 64 centres runs one ``_bfs_levels`` search, and a level
    adds the weights of the vertices it reaches to its sources' ball
    volumes, so no hop row is formed.  Past a centre's eccentricity both
    balls are its component, and the ratio is exactly 1.  After L levels
    every radius k <= L // 2 is scored, and every larger radius has a ratio
    at most vol(V) / vol(B(x, L // 2 + 1)); a block stops once that bound
    is at most Q for each of its centres, so no later level can raise Q.
    The bound takes vol(V) with a relative slack of 1e-9, so rounding never
    stops a block early.
    """
    n = g.n_vertices
    centers = _pick_centers(g, n if n <= 2000 else 200, seed)
    # The stop must not cut a ratio that rounds above Q.  Each volume sums
    # at most n nonnegative terms, so it is off the exact sum by a relative
    # n * 2^-53 at most, and the slack of 1e-9 covers n <= 10^6.  On a
    # disconnected graph vol(V) is larger than any ball's outer volume,
    # which only loosens the bound, and a ball of zero volume never stops a
    # block, since q * 0 < total whenever any weight is positive.
    total = float(np.sum(g.w_V)) * (1 + 1e-9)
    q = 1.0
    for start in range(0, len(centers), _HOP_BLOCK):
        src = centers[start:start + _HOP_BLOCK]
        b = len(src)
        cum = np.zeros(b)
        vols = []                   # vols[k][s]: vol B(src[s], (k + 1/2) eps)
        for top, new in enumerate(_bfs_levels(g, src)):
            act = np.flatnonzero(new)
            # summed row by row in vertex order, as bincount and cumsum do;
            # w @ bits sums in BLAS order and moves Q in its last bits, and
            # so would a lone column, which numpy sums pairwise: all 64 are
            # summed and the block's b kept
            lvl = (g.w_V[act][:, None] * _word_bits(new[act])).sum(axis=0)
            cum = cum + lvl[:b]
            vols.append(cum)
            if top >= 2 and top % 2 == 0:
                q = _max_ratio(q, cum, vols[top // 2])
            if top >= 1 and np.all(total <= q * vols[top // 2 + 1]):
                break
        else:
            # the search ended: every radius in (top // 2, top] has the last
            # level's volumes as its outer ball
            for inner in vols[top // 2 + 1:]:
                q = _max_ratio(q, cum, inner)
    return q


# ---------------------------------------------------------------------------
# Poincare


def _poincare_ball_constant(g: WeightedGraph, B, idx, r: float) -> float:
    """Sharp constant 1 / (r sqrt(lam_1)) on the ball of vertices ``idx``.

    lam_1 is the smallest nonzero eigenvalue of the ball's own Laplacian
    (2 / eps^2) W^-1 L, with the gradient counting edges with both
    endpoints inside the ball; the ball's volume cancels.  Its operator is
    ``graph._ball_operator`` of the graph's operator B.  A hop ball is
    connected: a shortest path from its centre stays inside it.
    """
    ball = _ball_operator(g, B, idx)
    if len(idx) <= DENSE_LIMIT:
        lam = eigvalsh(ball.toarray(), subset_by_index=[1, 1])[0]
    else:
        v0 = np.random.Generator(np.random.PCG64(0)).standard_normal(len(idx))
        lam = _lanczos_above_null(ball, g.w_V[idx], 1, v0, tol=1e-10)[0][1]
    return float(1.0 / (r * math.sqrt(lam)))


def poincare_constant(g: WeightedGraph, seed: int = 0) -> float:
    """Sampled sharp constant of the Poincare inequality on graph balls.

    For each of ``_POINCARE_CENTERS`` sampled centers x and six hop counts
    k, geometrically spaced up to the largest hop count seen, the ball
    B(x, (k + 1/2) eps) is the vertices at most k hops from x.  Its sharp
    constant is solved exactly: densely up to ``DENSE_LIMIT`` vertices, by
    deflated Lanczos above.  The constant falls as r grows, so each
    distinct vertex set is solved once, at the smallest radius that
    reaches it.  Every vertex weight must be positive.
    """
    _no_vertex(g.w_V <= 0, "nonpositive vertex weights")
    B = _operator_csr(g)
    centers = _pick_centers(g, _POINCARE_CENTERS, seed)
    hops = np.vstack([h for _, h in _hop_blocks(g, centers)])
    top = int(np.max(hops, initial=1, where=np.isfinite(hops)))
    ks = np.unique(np.clip(np.round(np.geomspace(1, top, 6)).astype(int), 1, top))
    balls = {}                      # vertex set -> (vertices, smallest k)
    for row in hops:
        for k in ks:
            idx = np.flatnonzero(row <= k)
            key = idx.tobytes()
            if len(idx) >= 2 and k < balls.get(key, (idx, top + 1))[1]:
                balls[key] = (idx, k)
    return max((_poincare_ball_constant(g, B, idx, (k + 0.5) * g.epsilon)
                for idx, k in balls.values()), default=0.0)


# ---------------------------------------------------------------------------
# almost regularity, smoothing, Nash, Moser


def almost_regularity(g: WeightedGraph) -> float:
    """Worst local ratio of vertex weights and degrees.

    The ratios are taken over the edges of the triangle, a block of rows at
    a time.  The ratio of a vertex's largest to its smallest incident edge
    weight is 1, since every edge has the weight w_E.
    """
    r = 1.0
    degrees = g.degrees.astype(float)
    for i, j in g._edge_blocks():
        for val in (g.w_V, degrees):
            r = max(r, _worst_ratio(val[i], val[j]))
    return r


def _worst_ratio(a, b) -> float:
    """Largest max(a/b, b/a) over pairs of nonnegative weights: 1 where the
    two are equal, 0/0 included, and inf where only one of them is 0."""
    q = np.divide(a, b, out=np.full(len(a), np.inf), where=b > 0)
    q[a == b] = 1.0
    inv = np.divide(1.0, q, out=np.full(len(q), np.inf), where=q > 0)
    return float(np.max(np.maximum(q, inv), initial=1.0))


def smoothing_apply(g: WeightedGraph, phi) -> np.ndarray:
    """Edge-weighted neighbor average I(phi)."""
    phi = _vertex_function(phi, g.n_vertices)
    dw = g.incident_edge_weight()
    _no_vertex(dw == 0, "isolated vertices")
    return (g.weighted_adjacency @ phi) / dw


def nash_diagnostic(g: WeightedGraph, phi, D: float, nu: float) -> float:
    """Smallest C making the rough Nash-type inequality hold for this phi.

    min(||phi||_2, ||I phi||_2) <= (C (D ||grad phi||_2)^(nu/(nu+2))
    + ||phi||_1^(nu/(nu+2))) * ||phi||_1^(2/(nu+2)).
    """
    phi = _vertex_function(phi, g.n_vertices)
    D, nu = _nonnegative(D, "D"), _nonnegative(nu, "nu", finite=True)
    if not np.any(phi != 0):
        raise ValueError("phi must be nonzero")
    n1 = weighted_p_norm(g, phi, 1)
    n2 = weighted_p_norm(g, phi, 2)
    i2 = weighted_p_norm(g, smoothing_apply(g, phi), 2)
    grad = math.sqrt(dirichlet_energy(g, phi) / g.total_volume())
    lhs = min(n2, i2)
    e1 = nu / (nu + 2.0)
    e2 = 2.0 / (nu + 2.0)
    numer = lhs / n1**e2 - n1**e1
    if numer <= 1e-12 * n1**e1:
        return 0.0
    denom = (D * grad) ** e1
    if denom <= 0:
        return math.inf
    return numer / denom


def graph_diameter(g: WeightedGraph) -> float:
    """Graph-metric diameter: the largest finite hop count times eps.

    Exact at every n, by eccentricity bounds (BoundingDiameters, Takes and
    Kosters, CIKM 2011): a BFS from w, of eccentricity e, puts ecc(v) of
    each vertex v it reaches in [max(d, e - d), e + d], d = d(v, w).  Each
    round is one bit-parallel pass from up to 64 candidates, taken
    alternately by largest upper and smallest lower bound; a candidate
    stays while its upper bound exceeds the largest lower bound.  A vertex
    no source has reached keeps an infinite upper bound, so on a
    disconnected graph this is the largest diameter of a component.
    """
    lo, hi = np.zeros(g.n_vertices), np.full(g.n_vertices, np.inf)
    cand = np.ones(g.n_vertices, dtype=bool)
    while cand.any():
        idx = np.flatnonzero(cand)
        by_hi = idx[np.argsort(-hi[idx], kind="stable")]
        by_lo = idx[np.argsort(lo[idx], kind="stable")]
        both = np.column_stack([by_hi, by_lo]).ravel()
        first = np.sort(np.unique(both, return_index=True)[1])
        (_, hops), = _hop_blocks(g, both[first[:_HOP_BLOCK]])
        reached = np.isfinite(hops)
        e = np.max(hops, axis=1, initial=0.0, where=reached)[:, None]
        lo = np.maximum(lo, np.max(np.maximum(hops, e - hops), axis=0,
                                   initial=0.0, where=reached))
        hi = np.minimum(hi, np.min(e + hops, axis=0))
        cand &= hi > lo.max()
    return float(lo.max(initial=0.0) * g.epsilon)


def moser_alpha(g: WeightedGraph) -> float:
    """max_x w_V(x) / sum of incident edge weights."""
    dw = g.incident_edge_weight()
    _no_vertex(dw == 0, "alpha undefined: isolated vertices")
    return float(np.max(g.w_V / dw))


def moser_ratio(g: WeightedGraph, spectral: SpectralResult, k: int, p) -> float:
    """|||phi_k|||_p / |||phi_k|||_1 for the k-th eigenvector phi_k."""
    k = _count(k, "k", 0, len(spectral.eigenvalues))
    phi = np.abs(spectral.eigenvectors[:, k])
    return float(weighted_p_norm(g, phi, p) / weighted_p_norm(g, phi, 1))


def moser_check(g: WeightedGraph, spectral: SpectralResult, k: int, p,
                alpha_param: float, D: float):
    """p-norm ratio of the k-th eigenvector and the bound shape it is held to.

    Returns (ratio, bound_shape) with ratio = |||phi_k|||_p / |||phi_k|||_1
    and bound_shape = p^(2 lam alpha eps^2) * exp(D sqrt(lam)); the unknown
    multiplicative constant of the bound is set to one, so only the shape
    (stability across n) is meaningful, never a literal inequality.
    """
    alpha_param = _nonnegative(alpha_param, "alpha_param")
    D = _nonnegative(D, "D")
    ratio = moser_ratio(g, spectral, k, p)
    lam = float(spectral.eigenvalues[int(k)])
    power = 2.0 * lam * alpha_param * g.epsilon**2
    growth = math.exp(D * math.sqrt(max(lam, 0.0)))
    if p == np.inf:
        shape = math.inf if power > 0 else growth
    else:
        shape = p ** power * growth
    return ratio, float(shape)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class RegularityCertificate:
    """All regularity quantities measured on one graph."""

    Q: float
    P: float
    R: float
    moser_table: list               # (k, p, ratio)

    @property
    def nu(self) -> float:
        return math.log2(self.Q) if self.Q > 1 else 0.0


def certify(g: WeightedGraph, spectral: SpectralResult,
            seed: int = 0) -> RegularityCertificate:
    """Measure Q, P, R and the MOSER_K x MOSER_P Moser ratios on one graph."""
    q = doubling_constant(g, seed=seed)
    p = poincare_constant(g, seed=seed)
    r = almost_regularity(g)
    table = [(k, pp, moser_ratio(g, spectral, k, pp))
             for k in MOSER_K if k < len(spectral.eigenvalues)
             for pp in MOSER_P]
    return RegularityCertificate(Q=q, P=p, R=r, moser_table=table)
