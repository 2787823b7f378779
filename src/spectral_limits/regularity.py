"""Empirical regularity certificates for weighted graphs.

The quantities mirror the structural hypotheses under which graph
eigenfunctions admit L^p bounds: a volume-doubling constant across
quantized radius breakpoints, a sharp sampled Poincare constant, a local
almost-regularity ratio, a neighbor-averaging (smoothing) operator, a
Nash-type fitted constant, and the Moser-shape check on eigenvector
p-norm ratios.  All radii live on the breakpoints (k + 1/2) * eps, where
the quantized graph metric makes ball membership exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse import csgraph

from .graph import WeightedGraph, dirichlet_energy
from .spectral import SpectralResult, volume_norm

__all__ = [
    "RegularityCertificate",
    "weighted_p_norm",
    "ball_average",
    "doubling_constant",
    "poincare_constant",
    "almost_regularity",
    "smoothing_apply",
    "nash_diagnostic",
    "moser_check",
    "graph_diameter",
    "certify",
]


# ---------------------------------------------------------------------------
# norms and averages


def weighted_p_norm(g: WeightedGraph, phi, p, subset=None) -> float:
    """Volume-normalized p-norm of a vertex function over a subset.

    ``(1/vol(W) * sum_{x in W} |phi(x)|^p w_V(x))^(1/p)``; the sup norm
    over the subset for p = inf.
    """
    phi = np.asarray(phi, dtype=float)
    if subset is None:
        idx = np.arange(g.n_vertices)
    else:
        idx = np.asarray(subset, dtype=np.int64)
    if len(idx) == 0:
        raise ValueError("empty subset")
    if p == np.inf or p == "inf":
        return float(np.max(np.abs(phi[idx])))
    if p < 1:
        raise ValueError("p must be >= 1")
    vol = float(np.sum(g.w_V[idx]))
    if vol <= 0:
        raise ValueError("subset has zero volume")
    return float((np.sum(np.abs(phi[idx]) ** p * g.w_V[idx]) / vol) ** (1.0 / p))


def _all_hops(g: WeightedGraph) -> np.ndarray:
    if getattr(g, "_hops_cache", None) is None:
        g._hops_cache = csgraph.shortest_path(
            g.adjacency(), method="D", unweighted=True
        )
    return g._hops_cache


def ball_average(g: WeightedGraph, phi, s: float) -> np.ndarray:
    """Mean of phi over the strict s-ball around each vertex."""
    if s <= 0:
        raise ValueError("s must be positive")
    phi = np.asarray(phi, dtype=float)
    hops = _all_hops(g)
    member = hops * g.epsilon < s
    w = member * g.w_V[None, :]
    vol = w.sum(axis=1)
    return (w @ phi) / vol


# ---------------------------------------------------------------------------
# doubling


def _pick_centers(g: WeightedGraph, center_sample, seed: int) -> np.ndarray:
    n = g.n_vertices
    if center_sample in ("all", None) or (
        center_sample == "auto" and n <= 2000
    ):
        return np.arange(n)
    if center_sample == "auto":
        center_sample = 200
    count = min(int(center_sample), n)
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.sort(rng.choice(n, size=count, replace=False))


def _cumulative_ball_volumes(g: WeightedGraph, hops_row) -> np.ndarray:
    finite = np.isfinite(hops_row)
    h = hops_row[finite].astype(np.int64)
    vols = np.bincount(h, weights=g.w_V[finite])
    return np.cumsum(vols)


def doubling_constant(g: WeightedGraph, center_sample="auto", seed: int = 0) -> float:
    """Worst ratio vol(B(x, 2r)) / vol(B(x, r)) over breakpoint radii r > eps."""
    centers = _pick_centers(g, center_sample, seed)
    hops = csgraph.shortest_path(g.adjacency(), method="D", unweighted=True,
                                 indices=centers)
    diam_hops = int(np.max(hops[np.isfinite(hops)]))
    q = 1.0
    for row in hops:
        cum = _cumulative_ball_volumes(g, row)
        top = len(cum) - 1
        # radius (k + 1/2) eps contains hop counts <= k
        for k in range(1, diam_hops + 1):
            inner = cum[min(k, top)]
            outer = cum[min(2 * k, top)]
            if inner > 0:
                q = max(q, outer / inner)
    return q


# ---------------------------------------------------------------------------
# Poincare


def _positive_weight_adjacency(g: WeightedGraph) -> sparse.csr_matrix:
    keep = g.w_E > 0
    e = g.edges[keep]
    w = g.w_E[keep]
    a = sparse.coo_matrix(
        (np.r_[w, w], (np.r_[e[:, 0], e[:, 1]], np.r_[e[:, 1], e[:, 0]])),
        shape=(g.n_vertices, g.n_vertices),
    )
    return a.tocsr()


def _poincare_ball_constant(g: WeightedGraph, b_idx, s_idx, r: float):
    """Sharp constant on one ball pair."""
    w = g.w_V
    sub = np.full(g.n_vertices, -1, dtype=np.int64)
    sub[s_idx] = np.arange(len(s_idx))
    # the Dirichlet form only sees edges of positive weight, so its null
    # space is governed by the positive-weight component structure
    adj = _positive_weight_adjacency(g)[s_idx][:, s_idx]
    ncomp, labels = csgraph.connected_components(adj, directed=False)
    b_local = sub[b_idx]
    b_comps = np.unique(labels[b_local])
    if len(b_comps) > 1:
        return math.inf
    keep = np.nonzero(labels == b_comps[0])[0]
    comp = s_idx[keep]
    loc = np.full(g.n_vertices, -1, dtype=np.int64)
    loc[comp] = np.arange(len(comp))

    vol_b = float(np.sum(w[b_idx]))
    vol_s = float(np.sum(w[s_idx]))
    nloc = len(comp)
    # variance form over B: (1/vol(B)) (diag(wB) - wB wB^T / vol(B))
    a = np.zeros((nloc, nloc))
    bl = loc[b_idx]
    a[bl, bl] = w[b_idx] / vol_b
    a[np.ix_(bl, bl)] -= np.outer(w[b_idx], w[b_idx]) / vol_b**2
    # Dirichlet form over S restricted to in-S edges of this component
    asub = g.weighted_adjacency()[comp][:, comp].tocoo()
    d = np.zeros((nloc, nloc))
    dw = np.asarray(asub.sum(axis=1)).ravel()
    d[np.arange(nloc), np.arange(nloc)] = dw
    d[asub.row, asub.col] -= asub.data
    d *= 2.0 / (vol_s * g.epsilon**2)
    rhs = r * r * d
    # deflate the constant null direction with a rank-one term
    ones = np.ones((nloc, 1))
    beta = max(np.trace(rhs), 1.0) / nloc
    rhs = rhs + beta * (ones @ ones.T)
    vals = eigh(a, rhs, eigvals_only=True)
    return float(math.sqrt(max(vals[-1], 0.0)))


def _poincare_ball_testmode(g, b_idx, s_idx, r, test_functions):
    """Lower-bound estimate of the sharp constant from test functions."""
    w = g.w_V
    vol_b = float(np.sum(w[b_idx]))
    vol_s = float(np.sum(w[s_idx]))
    in_s = np.zeros(g.n_vertices, dtype=bool)
    in_s[s_idx] = True
    e = g.edges
    mask = in_s[e[:, 0]] & in_s[e[:, 1]]
    best = 0.0
    for phi in test_functions:
        mean_b = float(np.sum(phi[b_idx] * w[b_idx]) / vol_b)
        var = float(np.sum((phi[b_idx] - mean_b) ** 2 * w[b_idx]) / vol_b)
        diff = (phi[e[mask, 0]] - phi[e[mask, 1]]) / g.epsilon
        dir2 = 2.0 * float(np.sum(diff**2 * g.w_E[mask])) / vol_s
        if dir2 > 1e-300:
            best = max(best, math.sqrt(var / (r * r * dir2)))
        elif var > 1e-300:
            return math.inf
    return best


def poincare_constant(
    g: WeightedGraph,
    sigma: float = 1.0,
    center_sample="auto",
    seed: int = 0,
    radii_sample: int = 6,
    ball_limit: int = 2000,
    test_functions: Optional[np.ndarray] = None,
) -> float:
    """Sampled sharp constant of the two-ball Poincare inequality.

    For each sampled center x and breakpoint radius r the sharp constant
    solves a generalized symmetric eigenproblem on the sigma*r-ball (the
    gradient counts edges with both endpoints inside).  Balls whose inner
    part meets several components of the sigma*r-ball have no finite
    constant and yield +inf.  Balls larger than ``ball_limit`` vertices are
    scored in test-function mode (a lower bound) instead of solved exactly.
    """
    if sigma < 1.0:
        raise ValueError("sigma must be >= 1")
    if center_sample == "auto":
        center_sample = min(8, g.n_vertices)
    centers = _pick_centers(g, center_sample, seed)
    hops = csgraph.shortest_path(g.adjacency(), method="D", unweighted=True,
                                 indices=centers)
    finite = hops[np.isfinite(hops)]
    diam_hops = int(np.max(finite)) if len(finite) else 1
    ks = np.unique(
        np.clip(
            np.round(np.geomspace(1, max(diam_hops, 1), radii_sample)).astype(int),
            1,
            max(diam_hops, 1),
        )
    )
    p = 0.0
    solved = {}
    for row in hops:
        for k in ks:
            r = (k + 0.5) * g.epsilon
            b_idx = np.nonzero(row * g.epsilon < r)[0]
            s_idx = np.nonzero(row * g.epsilon < sigma * r)[0]
            if len(b_idx) < 2:
                continue
            key = (b_idx.tobytes(), s_idx.tobytes(), round(r, 12))
            if key in solved:
                val = solved[key]
            elif len(s_idx) > ball_limit:
                if test_functions is None:
                    test_functions = _default_test_functions(g)
                val = _poincare_ball_testmode(g, b_idx, s_idx, r, test_functions)
                solved[key] = val
            else:
                val = _poincare_ball_constant(g, b_idx, s_idx, r)
                solved[key] = val
            p = max(p, val)
            if math.isinf(p):
                return p
    return p


def _default_test_functions(g: WeightedGraph, count: int = 6) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(1234))
    return [rng.standard_normal(g.n_vertices) for _ in range(count)]


# ---------------------------------------------------------------------------
# almost regularity, smoothing, Nash, Moser


def almost_regularity(g: WeightedGraph) -> float:
    """Worst local ratio of vertex weights, degrees, and incident edge weights."""
    if len(g.edges) == 0:
        return 1.0
    i, j = g.edges[:, 0], g.edges[:, 1]
    r = 1.0
    for val in (g.w_V, g.degrees.astype(float)):
        q = val[i] / val[j]
        r = max(r, float(np.max(np.maximum(q, 1.0 / q))))
    wmax = np.full(g.n_vertices, -np.inf)
    wmin = np.full(g.n_vertices, np.inf)
    for a, b in ((i, j), (j, i)):
        np.maximum.at(wmax, a, g.w_E)
        np.minimum.at(wmin, a, g.w_E)
    touched = np.isfinite(wmax)
    r = max(r, float(np.max(wmax[touched] / wmin[touched])))
    return r


def smoothing_apply(g: WeightedGraph, phi) -> np.ndarray:
    """Edge-weighted neighbor average I(phi)."""
    phi = np.asarray(phi, dtype=float)
    dw = g.incident_edge_weight()
    if np.any(dw == 0):
        bad = np.nonzero(dw == 0)[0]
        raise ValueError(f"isolated vertices: {bad[:10].tolist()}")
    return (g.weighted_adjacency() @ phi) / dw


def nash_diagnostic(g: WeightedGraph, phi, D: float, nu: float) -> float:
    """Smallest C making the rough Nash-type inequality hold for this phi.

    min(||phi||_2, ||I phi||_2) <= (C (D ||grad phi||_2)^(nu/(nu+2))
    + ||phi||_1^(nu/(nu+2))) * ||phi||_1^(2/(nu+2)).
    """
    phi = np.asarray(phi, dtype=float)
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


def graph_diameter(g: WeightedGraph, exact_limit: int = 4000) -> float:
    """Graph-metric diameter (hops * eps); exact below the size limit."""
    if g.n_vertices <= exact_limit:
        hops = _all_hops(g)
        finite = hops[np.isfinite(hops)]
        return float(np.max(finite) * g.epsilon)
    # two-sweep estimate for big graphs
    h0 = csgraph.shortest_path(g.adjacency(), method="D", unweighted=True, indices=0)
    far = int(np.argmax(np.where(np.isfinite(h0), h0, -1)))
    h1 = csgraph.shortest_path(g.adjacency(), method="D", unweighted=True, indices=far)
    return float(np.max(h1[np.isfinite(h1)]) * g.epsilon)


def moser_alpha(g: WeightedGraph) -> float:
    """max_x w_V(x) / sum of incident edge weights."""
    dw = g.incident_edge_weight()
    if np.any(dw == 0):
        raise ValueError("isolated vertex: alpha undefined")
    return float(np.max(g.w_V / dw))


def moser_check(g: WeightedGraph, spectral: SpectralResult, k: int, p,
                alpha_param: Optional[float] = None, D: Optional[float] = None):
    """p-norm ratio of the k-th eigenvector and the bound shape it is held to.

    Returns (ratio, bound_shape) with ratio = |||phi_k|||_p / |||phi_k|||_1
    and bound_shape = p^(2 lam alpha eps^2) * exp(D sqrt(lam)); the unknown
    multiplicative constant of the bound is set to one, so only the shape
    (stability across n) is meaningful, never a literal inequality.
    """
    lam = float(spectral.eigenvalues[k])
    phi = np.abs(spectral.eigenvectors[:, k])
    if alpha_param is None:
        alpha_param = moser_alpha(g)
    if D is None:
        D = graph_diameter(g)
    ratio = weighted_p_norm(g, phi, p) / weighted_p_norm(g, phi, 1)
    if p == np.inf or p == "inf":
        shape = math.inf if lam * alpha_param * g.epsilon**2 > 0 else math.exp(
            D * math.sqrt(max(lam, 0.0))
        )
    else:
        shape = p ** (2.0 * lam * alpha_param * g.epsilon**2) * math.exp(
            D * math.sqrt(max(lam, 0.0))
        )
    return float(ratio), float(shape)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class RegularityCertificate:
    """All regularity quantities measured on one graph."""

    n: int
    eps: float
    Q: float
    P: float
    sigma: float
    R: float
    moser_table: list = field(default_factory=list)  # (k, p, ratio)

    @property
    def nu(self) -> float:
        return math.log2(self.Q) if self.Q > 1 else 0.0


def certify(g: WeightedGraph, spectral: Optional[SpectralResult] = None,
            sigma: float = 1.0, seed: int = 0, moser_ks: Sequence[int] = (1, 2),
            center_sample="auto") -> RegularityCertificate:
    """Measure Q, P, R and Moser ratios on one graph."""
    q = doubling_constant(g, center_sample=center_sample, seed=seed)
    p = poincare_constant(g, sigma=sigma, seed=seed)
    r = almost_regularity(g)
    table = []
    if spectral is not None:
        for k in moser_ks:
            if k < len(spectral.eigenvalues):
                for pp in (2, 4, 8, np.inf):
                    ratio, _ = moser_check(g, spectral, k, pp)
                    table.append((k, pp, ratio))
    return RegularityCertificate(
        n=g.n_vertices, eps=g.epsilon, Q=q, P=p, sigma=sigma, R=r,
        moser_table=table,
    )
