import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse import csgraph

from conftest import custom_graph
from spectral_limits import experiments, regularity, spectral
from spectral_limits.config import ExperimentConfig
from spectral_limits.graph import WeightedGraph, dirichlet_energy, gamma_N_eps
from spectral_limits.regularity import (
    almost_regularity,
    certify,
    doubling_constant,
    graph_diameter,
    moser_alpha,
    moser_check,
    moser_ratio,
    nash_diagnostic,
    poincare_constant,
    smoothing_apply,
    weighted_p_norm,
)
from spectral_limits.sampling import DensitySpec, epsilon_schedule, sample_dataset
from spectral_limits.spectral import eigen_decompose


def star_k13():
    return custom_graph(4, [[0, 1], [0, 2], [0, 3]], [0.25] * 4, [1.0] * 3)


def random_graph(n, p, seed, eps=0.3):
    """Erdos-Renyi graph with random vertex weights; may be disconnected."""
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, 1)
    keep = rng.random(len(i)) < p
    edges = np.column_stack([i[keep], j[keep]])
    return custom_graph(n, edges, rng.uniform(0.5, 2.0, n), eps=eps)


def dense_hops(g):
    return csgraph.shortest_path(g.weighted_adjacency, method="D", unweighted=True)


def dense_diameter(g):
    hops = dense_hops(g)
    return float(np.max(hops[np.isfinite(hops)]) * g.epsilon)


def all_sources_diameter(g):
    """The largest finite hop count over a BFS from every vertex, times eps."""
    top = 0.0
    for _, hops in regularity._hop_blocks(g, np.arange(g.n_vertices)):
        top = float(np.max(hops, initial=top, where=np.isfinite(hops)))
    return top * g.epsilon


def count_passes(monkeypatch):
    """Record the source count of every ``_hop_blocks`` pass from now on."""
    passes = []
    hop_blocks = regularity._hop_blocks

    def counted(g, sources):
        for src, hops in hop_blocks(g, sources):
            passes.append(len(src))
            yield src, hops

    monkeypatch.setattr(regularity, "_hop_blocks", counted)
    return passes


def dense_doubling(g):
    """Doubling constant from every vertex's hop row held at once, each row
    scanned up to the graph's largest hop count: the oracle for the streamed
    rows that stop at their own eccentricity."""
    hops = dense_hops(g)
    diam_hops = int(np.max(hops[np.isfinite(hops)]))
    q = 1.0
    for row in hops:
        finite = np.isfinite(row)
        cum = np.cumsum(np.bincount(row[finite].astype(np.int64),
                                    weights=g.w_V[finite]))
        top = len(cum) - 1
        for k in range(1, diam_hops + 1):
            inner, outer = cum[min(k, top)], cum[min(2 * k, top)]
            if inner > 0:
                q = max(q, outer / inner)
    return q


def per_row_doubling(g, seed=0):
    """Doubling constant of the same centres from their hop rows, one
    ``bincount`` and ``cumsum`` per row up to the row's eccentricity: the
    oracle, bit for bit, for the level volumes and the early stop."""
    n = g.n_vertices
    centers = regularity._pick_centers(g, n if n <= 2000 else 200, seed)
    q = 1.0
    for _, hops in regularity._hop_blocks(g, centers):
        for row in hops:
            finite = np.isfinite(row)
            cum = np.cumsum(np.bincount(row[finite].astype(np.int64),
                                        weights=g.w_V[finite]))
            top = len(cum) - 1
            k = np.arange(1, top + 1)
            inner, outer = cum[k], cum[np.minimum(2 * k, top)]
            ok = inner > 0
            q = max(q, float(np.max(outer[ok] / inner[ok], initial=q)))
    return q


def count_levels(monkeypatch):
    """Record the number of levels each ``_bfs_levels`` search yields from
    now on."""
    levels = []
    bfs_levels = regularity._bfs_levels

    def counted(g, src):
        levels.append(0)
        for new in bfs_levels(g, src):
            levels[-1] += 1
            yield new

    monkeypatch.setattr(regularity, "_bfs_levels", counted)
    return levels


# vertex functions of another shape than (2,), for a graph of two vertices
wrong_shapes = pytest.mark.parametrize("phi", [np.ones((2, 2)), np.ones(3)],
                                       ids=["2x2", "length-3"])


class TestWeightedPNorm:
    def test_hand_example(self):
        g = custom_graph(2, [[0, 1]], [1.0, 1.0], [1.0])
        phi = np.array([0.0, 2.0])
        assert weighted_p_norm(g, phi, 1) == pytest.approx(1.0)
        assert weighted_p_norm(g, phi, 2) == pytest.approx(math.sqrt(2.0))

    def test_constant(self, path3_gamma_N):
        phi = np.full(3, -2.5)
        for p in (1, 2, 4, np.inf):
            assert weighted_p_norm(path3_gamma_N, phi, p) == pytest.approx(2.5)

    def test_monotone_in_p(self, circle_graph_200):
        rng = np.random.default_rng(0)
        phi = rng.standard_normal(200)
        norms = [weighted_p_norm(circle_graph_200, phi, p)
                 for p in (1, 2, 4, 8, np.inf)]
        assert np.all(np.diff(norms) >= -1e-12)

    @pytest.mark.parametrize("p", [math.nan, 0.5], ids=["nan", "half"])
    def test_rejects_p_below_one(self, path3_gamma_N, p):
        with pytest.raises(ValueError, match="p must be >= 1"):
            weighted_p_norm(path3_gamma_N, np.ones(3), p)

    @wrong_shapes
    def test_rejects_a_function_of_another_shape(self, phi):
        g = custom_graph(2, [[0, 1]], [1.0, 1.0], [1.0])
        with pytest.raises(ValueError, match=r"phi must have shape \(2,\)"):
            weighted_p_norm(g, phi, 2)


class TestHopBlocksOracle:
    """The bit-parallel BFS against one unweighted Dijkstra per source."""

    @staticmethod
    def check(g, sources):
        blocks = list(regularity._hop_blocks(g, sources))
        assert all(len(src) <= 64 for src, _ in blocks)
        assert np.array_equal(np.concatenate([s for s, _ in blocks]), sources)
        hops = np.vstack([h for _, h in blocks])
        assert hops.dtype == np.float64
        assert np.array_equal(hops, csgraph.dijkstra(
            g.weighted_adjacency, unweighted=True, indices=sources))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        g = random_graph(90, [0.02, 0.05, 0.2][seed % 3], seed)
        self.check(g, np.arange(90))

    def test_two_components_and_an_isolated_vertex(self):
        # a 6-cycle, a 4-vertex path, and vertex 10 with no edge
        edges = [[i, (i + 1) % 6] for i in range(6)]
        edges += [[6, 7], [7, 8], [8, 9]]
        g = custom_graph(11, edges, [1.0] * 11, [1.0] * len(edges))
        self.check(g, np.array([10, 3, 7, 0, 9]))
        self.check(g, np.arange(11))

    def test_no_edges(self):
        g = custom_graph(3, [], [1.0] * 3)
        self.check(g, np.array([1, 0]))

    def test_long_path_counts_past_one_byte(self):
        # hop counts up to 299 run past the 255 that one byte holds
        n = 300
        g = custom_graph(n, [[i, i + 1] for i in range(n - 1)], [1.0] * n,
                         [1.0] * (n - 1))
        self.check(g, np.array([0, 299, 150, 17]))

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
    def test_source_counts_around_the_word(self, count):
        g = random_graph(200, 0.03, count)
        sources = np.random.default_rng(count).permutation(200)[:count]
        self.check(g, sources)


class TestGraphDiameter:
    """Eccentricity bounds against the BFS from every vertex."""

    @staticmethod
    def check(g):
        d = graph_diameter(g)
        assert d == all_sources_diameter(g)
        return d

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_match_dense_oracle(self, seed):
        g = random_graph(60, 0.06, seed)
        assert self.check(g) == dense_diameter(g)

    def test_path(self):
        n = 50
        g = custom_graph(n, [[i, i + 1] for i in range(n - 1)], [1.0] * n,
                         [1.0] * (n - 1), eps=0.1)
        assert self.check(g) == (n - 1) * 0.1

    def test_cycle(self):
        # every eccentricity is 50, and e + d meets it only at a source, so
        # every vertex is a source
        n = 101
        g = custom_graph(n, [[i, (i + 1) % n] for i in range(n)], [1.0] * n,
                         [1.0] * n, eps=0.5)
        assert self.check(g) == 25.0 == dense_diameter(g)

    def test_n_not_a_multiple_of_the_block(self):
        n = regularity._HOP_BLOCK + 37
        g = random_graph(n, 0.012, 5)
        assert self.check(g) == dense_diameter(g)

    def test_only_the_last_partial_block_sees_the_diameter(self):
        # a star on the first two blocks (2 hops) and a 10-vertex path,
        # 9 hops long, on the last 10 vertices
        b = regularity._HOP_BLOCK
        n = 2 * b + 10
        edges = [[0, i] for i in range(1, 2 * b)]
        edges += [[i, i + 1] for i in range(2 * b, n - 1)]
        g = custom_graph(n, edges, [1.0] * n, [1.0] * len(edges), eps=0.5)
        assert self.check(g) == 4.5 == dense_diameter(g)

    def test_disconnected_gives_largest_component(self):
        # a 7-vertex path and a triangle: the largest finite hop count is 6
        edges = [[i, i + 1] for i in range(6)] + [[7, 8], [8, 9], [7, 9]]
        g = custom_graph(10, edges, [1.0] * 10, [1.0] * len(edges), eps=0.5)
        assert self.check(g) == 3.0 == dense_diameter(g)

    def test_more_components_than_one_pass_holds(self, monkeypatch):
        # 70 triangles, 60 isolated vertices and a 5-vertex path last: an
        # unreached vertex stays a candidate until it is a source itself
        edges = [[3 * t + a, 3 * t + b] for t in range(70)
                 for a, b in ((0, 1), (1, 2), (0, 2))]
        edges += [[270 + i, 271 + i] for i in range(4)]
        n = 275
        g = custom_graph(n, edges, [1.0] * n, [1.0] * len(edges), eps=0.5)
        passes = count_passes(monkeypatch)
        assert graph_diameter(g) == 2.0 == dense_diameter(g)
        assert len(passes) > 1
        monkeypatch.undo()
        self.check(g)

    def test_above_4000_vertices(self, sphere2):
        n = 4200
        cloud = sample_dataset(sphere2, DensitySpec("uniform"), n, seed=1)
        self.check(gamma_N_eps(cloud, epsilon_schedule(n, 2)))

    def test_each_pass_fills_the_word(self, sphere2, monkeypatch):
        # one source per pass takes 167 passes on this graph
        n = 4000
        cloud = sample_dataset(sphere2, DensitySpec("uniform"), n, seed=1)
        g = gamma_N_eps(cloud, epsilon_schedule(n, 2))
        passes = count_passes(monkeypatch)
        graph_diameter(g)
        assert 1 <= len(passes) <= 8

    def test_memory_is_not_n_squared(self, sphere2):
        n = 2000
        cloud = sample_dataset(sphere2, DensitySpec("uniform"), n, seed=4)
        g = gamma_N_eps(cloud, epsilon_schedule(n, 2))
        tracemalloc.start()
        try:
            graph_diameter(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense = n * n * 8             # one n x n float64 hop matrix: 32 MB
        assert peak < dense / 4


class TestDoubling:
    def test_complete_graph(self):
        edges = [[i, j] for i in range(5) for j in range(i + 1, 5)]
        g = custom_graph(5, edges, [0.2] * 5, [1.0] * len(edges))
        assert doubling_constant(g) == pytest.approx(1.0)

    def test_single_edge_uneven_weights(self):
        g = custom_graph(2, [[0, 1]], [1.0, 3.0], [1.0])
        assert doubling_constant(g) == pytest.approx(1.0)

    def test_star_leaf_ratio(self):
        assert doubling_constant(star_k13()) == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle(self, seed):
        # random graphs may be disconnected, and some vertex rows then stop
        # far below the largest hop count
        g = random_graph(60 + 40 * seed, 0.04, seed)
        assert doubling_constant(g) == dense_doubling(g)

    def test_matches_dense_oracle_on_the_sphere(self, sphere2):
        cloud = sample_dataset(sphere2, DensitySpec("uniform"), 600, seed=2)
        g = gamma_N_eps(cloud, epsilon_schedule(600, 2))
        assert doubling_constant(g) == dense_doubling(g)

    @pytest.mark.parametrize("kind, seed", [("sphere2", 1), ("sphere2", 2),
                                            ("sphere2", 3), ("circle", 1),
                                            ("torus", 1)])
    def test_matches_the_per_row_oracle_at_4000(self, request, kind, seed):
        mfd = request.getfixturevalue(kind)
        cloud = sample_dataset(mfd, DensitySpec("uniform"), 4000, seed=seed)
        g = gamma_N_eps(cloud, epsilon_schedule(4000, mfd.m))
        assert doubling_constant(g, seed=seed) == per_row_doubling(g, seed)

    @pytest.mark.parametrize("n", [65, 120, 193])
    def test_matches_the_per_row_oracle_on_random_graphs(self, n):
        # weights over twelve decades, a fifth of them zero, and a tenth of
        # the vertices cut off; at n = 65 and 193 the last block has one
        # source, whose levels are long enough for the summation order to
        # show in the last bits
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = random_graph(n, 0.15, seed)
            cut = rng.random(n) < 0.1
            edges = g.edges[~(cut[g.edges[:, 0]] | cut[g.edges[:, 1]])]
            w = g.w_V * 10.0 ** rng.uniform(-6, 6, n)
            w[rng.random(n) < 0.2] = 0.0
            g = custom_graph(n, edges, w, eps=g.epsilon)
            assert csgraph.connected_components(g.weighted_adjacency)[0] > 1
            assert doubling_constant(g) == per_row_doubling(g), seed

    def test_radii_past_half_the_last_level_count(self, monkeypatch):
        # from vertex 0 of the path 0-1-2-3 the search ends at level 3, and
        # radius 2, whose outer ball is the whole path, is never half a level
        g = custom_graph(4, [[0, 1], [1, 2], [2, 3]], [1.0, 1.0, 1.0, 9.0])
        monkeypatch.setattr(regularity, "_pick_centers",
                            lambda g, count, seed: np.array([0]))
        assert doubling_constant(g) == 12.0 / 3.0 == per_row_doubling(g)

    def test_stops_each_block_before_its_search_ends(self, sphere2,
                                                     monkeypatch):
        n = 1500
        cloud = sample_dataset(sphere2, DensitySpec("uniform"), n, seed=1)
        g = gamma_N_eps(cloud, epsilon_schedule(n, 2))
        levels = count_levels(monkeypatch)
        q = doubling_constant(g)
        monkeypatch.undo()
        full = [sum(1 for _ in regularity._bfs_levels(g, src))
                for src in np.array_split(np.arange(n), range(64, n, 64))]
        assert len(levels) == len(full)
        assert all(ran < every for ran, every in zip(levels, full))
        assert q == per_row_doubling(g)

    def test_memory_is_not_n_squared(self, sphere2):
        n = 2000                      # every vertex is a centre up to 2000
        cloud = sample_dataset(sphere2, DensitySpec("uniform"), n, seed=1)
        g = gamma_N_eps(cloud, epsilon_schedule(n, 2))
        tracemalloc.start()
        try:
            doubling_constant(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all n hop rows at once are an n x n float64 matrix: 32 MB
        assert peak < 16 * 2**20
        # 200 centres at n = 4000: no block holds (n, 64) hop counts, and
        # the graph's own matrix, 2 MB, is built before the count starts
        n = 4000
        cloud = sample_dataset(sphere2, DensitySpec("uniform"), n, seed=1)
        g = gamma_N_eps(cloud, epsilon_schedule(n, 2))
        g.weighted_adjacency
        tracemalloc.start()
        try:
            doubling_constant(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_invariant_under_vertex_weight_scaling(self, circle_graph_200):
        g = circle_graph_200
        q1 = doubling_constant(g)
        g2 = custom_graph(g.n_vertices, g.edges, 7.5 * g.w_V, g.w_E,
                          eps=g.epsilon)
        assert doubling_constant(g2) == pytest.approx(q1, rel=1e-12)


def dense_pencil_constant(g, b_idx, s_idx, r: float):
    """The sharp two-ball constant from a dense generalized eigenproblem:
    the variance form over B against the Dirichlet form over S, with the
    constants deflated by a rank-one term.  The oracle for the one-ball
    constant, with B = S."""
    w = g.w_V
    sub = np.full(g.n_vertices, -1, dtype=np.int64)
    sub[s_idx] = np.arange(len(s_idx))
    adj = g.weighted_adjacency[s_idx][:, s_idx]
    adj.eliminate_zeros()
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
    asub = g.weighted_adjacency[comp][:, comp].tocoo()
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


def poincare_case(request, case):
    """A graph and the ``poincare_constant`` arguments of one oracle case."""
    shape, n, seed, kwargs = {
        # balls of more than DENSE_LIMIT vertices: the Lanczos branch
        "sphere2-1500": ("sphere2", 1500, 1, {"seed": 1}),
        "circle-300": ("circle", 300, 2, {"seed": 3}),
        "torus-400": ("torus", 400, 1, {"seed": 1}),
    }[case]
    mfd = request.getfixturevalue(shape)
    cloud = sample_dataset(mfd, DensitySpec("uniform"), n, seed=seed)
    return gamma_N_eps(cloud, epsilon_schedule(n, mfd.m)), kwargs


class TestPoincare:
    def test_single_edge_sharp_constant(self):
        g = custom_graph(2, [[0, 1]], [1.0, 1.0], [1.0])
        # ||phi - mean||^2 = 1 and r^2 ||grad phi||^2 = 2.25 * 4 for (1,-1)
        assert poincare_constant(g) == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_zero_vertex_weight_is_rejected(self):
        g = custom_graph(3, [[0, 1], [1, 2]], [1.0, 0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="positive vertex weights"):
            poincare_constant(g)

    def test_zero_weight_outside_every_ball_is_rejected(self):
        # a path of 20 vertices and an isolated vertex 20 of weight zero,
        # which no ball of two or more vertices holds
        path = [[i, i + 1] for i in range(19)]
        g = custom_graph(21, path, [1.0] * 20 + [0.0], [1.0] * 19)
        with pytest.raises(ValueError,
                           match=r"nonpositive vertex weights at \[20\]"):
            poincare_constant(g)

    def test_balls_are_cut_from_one_operator(self, monkeypatch, sphere2):
        cloud = sample_dataset(sphere2, DensitySpec("uniform"), 900, seed=4)
        g = gamma_N_eps(cloud, epsilon_schedule(900, 2))
        built, made = [], []
        build, init = regularity._operator_csr, WeightedGraph.__init__

        def spied_build(h):
            built.append(h)
            return build(h)

        def spied_init(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(regularity, "_operator_csr", spied_build)
        monkeypatch.setattr(WeightedGraph, "__init__", spied_init)
        assert math.isfinite(poincare_constant(g, seed=1))
        assert built == [g]
        assert made == []

    @pytest.mark.parametrize("case", ["sphere2-1500", "circle-300", "torus-400"])
    def test_every_ball_matches_the_dense_pencil(self, request, monkeypatch,
                                                  case):
        g, kwargs = poincare_case(request, case)
        balls = []
        solve = regularity._poincare_ball_constant

        def recorded(g, B, idx, r):
            val = solve(g, B, idx, r)
            balls.append((idx, r, val))
            return val

        monkeypatch.setattr(regularity, "_poincare_ball_constant", recorded)
        p = poincare_constant(g, **kwargs)
        assert p == max(val for _, _, val in balls)
        for idx, r, val in balls:
            assert val == pytest.approx(dense_pencil_constant(g, idx, idx, r),
                                        rel=1e-10)
        assert math.isfinite(p)
        assert poincare_constant(g, **kwargs) == p
        if case == "sphere2-1500":
            assert max(len(idx) for idx, _, _ in balls) > spectral.DENSE_LIMIT

    @pytest.mark.parametrize("edges", [[[i, i + 1] for i in range(5)],
                                       [[0, i] for i in range(1, 6)]],
                             ids=["path-6", "star-k15"])
    def test_each_ball_is_solved_once(self, monkeypatch, edges):
        # six vertices: every vertex is a centre, and the hop counts k are
        # 1..5 on the path and 1..2 on the star, every count up to the
        # largest; at the largest several centres reach the whole graph
        g = custom_graph(6, edges, [1.0] * 6, eps=0.5)
        solved = []
        solve = regularity._poincare_ball_constant

        def recorded(g, B, idx, r):
            solved.append(tuple(idx.tolist()))
            return solve(g, B, idx, r)

        monkeypatch.setattr(regularity, "_poincare_ball_constant", recorded)
        poincare_constant(g)
        hops = dense_hops(g)
        balls = {tuple(np.flatnonzero(row <= k).tolist())
                 for row in hops for k in range(1, int(hops.max()) + 1)}
        assert sorted(solved) == sorted(b for b in balls if len(b) >= 2)
        assert solved.count(tuple(range(6))) == 1

    def test_memory_is_not_n_squared(self, sphere2):
        n = 2000
        cloud = sample_dataset(sphere2, DensitySpec("uniform"), n, seed=1)
        g = gamma_N_eps(cloud, epsilon_schedule(n, 2))
        tracemalloc.start()
        try:
            poincare_constant(g, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense solve of a ball of n vertices holds n x n float64 matrices
        assert peak < 16 * 2**20


class TestAlmostRegularity:
    def test_path_degree_ratio(self):
        g = custom_graph(3, [[0, 1], [1, 2]], [1.0] * 3, [1.0] * 2)
        assert almost_regularity(g) == pytest.approx(2.0)

    def test_regular_graph(self):
        edges = [[0, 1], [1, 2], [2, 3], [0, 3]]
        g = custom_graph(4, edges, [1.0] * 4, [1.0] * 4)
        assert almost_regularity(g) == pytest.approx(1.0)

    def test_gamma_m_reduces_to_degree_ratio(self, circle):
        from spectral_limits.graph import gamma_m_eps

        cloud = sample_dataset(circle, DensitySpec("uniform"), 100, seed=3)
        g = gamma_m_eps(cloud, 0.5)
        i, j = g.edges[:, 0], g.edges[:, 1]
        q = g.degrees[i] / g.degrees[j]
        want = float(np.max(np.maximum(q, 1.0 / q)))
        assert almost_regularity(g) == pytest.approx(want)


def edge_almost_regularity(g):
    """The former almost-regularity: edge-list ratios and per-vertex w_E
    extremes gathered with ``ufunc.at``."""
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


def _built(kind, shape, n):
    from spectral_limits import geometry, graph

    mfd = geometry.Circle(1.0) if shape == "circle" else geometry.Sphere(2, 1.0)
    cloud = sample_dataset(mfd, DensitySpec("uniform"), n, seed=2)
    return getattr(graph, f"{kind}_eps")(cloud, epsilon_schedule(n, mfd.m))


class TestAlmostRegularityOracle:
    @pytest.mark.parametrize("kind", ["gamma_N", "gamma_m"])
    @pytest.mark.parametrize("shape,n", [("circle", 800), ("sphere", 600)])
    def test_built_graphs(self, kind, shape, n):
        g = _built(kind, shape, n)
        assert almost_regularity(g) == edge_almost_regularity(g)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,w_V,w_E,want", [
        # vertex weights 1 against 0, beside an edge whose ends both weigh 0
        (3, [1.0, 0.0, 0.0], [1.0, 1.0], math.inf),
        # every vertex weighs 0: a 0/0 of equal weights
        (2, [0.0, 0.0], [1.0], 1.0),
    ], ids=["vertex-weight", "all-zero"])
    def test_zero_weights_on_a_path(self, n, w_V, w_E, want):
        edges = [[i, i + 1] for i in range(n - 1)]
        assert almost_regularity(custom_graph(n, edges, w_V, w_E)) == want

    def test_isolated_vertex(self):
        g = custom_graph(5, [[0, 1], [1, 2], [0, 2], [2, 3]],
                         [1.0, 1.5, 2.0, 0.5, 4.0], 2.0)
        assert np.flatnonzero(g.degrees == 0).tolist() == [4]
        assert almost_regularity(g) == edge_almost_regularity(g)


class TestSmoothing:
    def test_constant(self, path3_gamma_N):
        out = smoothing_apply(path3_gamma_N, np.full(3, 4.0))
        assert np.allclose(out, 4.0)

    def test_path_neighbor_means(self):
        g = custom_graph(3, [[0, 1], [1, 2]], [1.0] * 3, [1.0] * 2)
        out = smoothing_apply(g, np.array([1.0, 0.0, 1.0]))
        assert np.allclose(out, [0.0, 1.0, 0.0])

    def test_range_preserving(self, circle_graph_200):
        rng = np.random.default_rng(4)
        phi = rng.standard_normal(200)
        out = smoothing_apply(circle_graph_200, phi)
        assert np.min(out) >= np.min(phi) - 1e-12
        assert np.max(out) <= np.max(phi) + 1e-12

    def test_isolated_vertex_error(self):
        g = custom_graph(3, [[0, 1]], [1.0] * 3, [1.0])
        with pytest.raises(ValueError, match="isolated"):
            smoothing_apply(g, np.ones(3))

    @wrong_shapes
    def test_rejects_a_function_of_another_shape(self, phi):
        g = custom_graph(2, [[0, 1]], [1.0, 1.0], [1.0])
        with pytest.raises(ValueError, match=r"phi must have shape \(2,\)"):
            smoothing_apply(g, phi)

    def test_eigenvector_lower_bound(self, circle_graph_200):
        # for nonnegative phi with (Lap phi) <= lam phi one has
        # (1 - alpha lam eps^2 / 2) phi <= I phi pointwise
        g = circle_graph_200
        res = eigen_decompose(g, 2)
        lam = res.eigenvalues[1]
        phi = np.abs(res.eigenvectors[:, 1])
        alpha = moser_alpha(g)
        lhs = (1.0 - alpha * lam * g.epsilon**2 / 2.0) * phi
        assert np.all(lhs <= smoothing_apply(g, phi) + 1e-10)


class TestNash:
    def test_constant_needs_no_constant(self, path3_gamma_N):
        assert nash_diagnostic(path3_gamma_N, np.ones(3), D=2.0, nu=1.0) == 0.0

    def test_two_equal_vertices(self):
        g = custom_graph(2, [[0, 1]], [1.0, 1.0], [1.0])
        assert nash_diagnostic(g, np.array([3.0, 3.0]), D=1.0, nu=2.0) == 0.0

    def test_path_closed_form(self):
        g = custom_graph(3, [[0, 1], [1, 2]], [1.0] * 3, [1.0] * 2)
        phi = np.array([1.0, 0.0, 0.0])
        D, nu = 2.0, 1.5
        n1 = (1.0 / 3.0)
        n2 = math.sqrt(1.0 / 3.0)
        i2 = math.sqrt((0.5**2) / 3.0)   # I phi = (0, 1/2, 0)
        grad = math.sqrt(dirichlet_energy(g, phi) / 3.0)
        lhs = min(n2, i2)
        e1, e2 = nu / (nu + 2.0), 2.0 / (nu + 2.0)
        want = max(0.0, (lhs / n1**e2 - n1**e1) / (D * grad) ** e1)
        got = nash_diagnostic(g, phi, D=D, nu=nu)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_function_rejected(self, path3_gamma_N):
        with pytest.raises(ValueError):
            nash_diagnostic(path3_gamma_N, np.zeros(3), 1.0, 1.0)

    @pytest.mark.parametrize("name, value", [("D", math.nan), ("D", -1.0),
                                             ("nu", math.nan), ("nu", -2.0)])
    def test_rejects_nan_or_negative_parameters(self, path3_gamma_N, name,
                                                value):
        kwargs = {"D": 1.0, "nu": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            nash_diagnostic(path3_gamma_N, np.array([1.0, 0.0, 0.0]),
                            **kwargs)


class TestMoser:
    @staticmethod
    def check(g, res, k, p):
        return moser_check(g, res, k, p, moser_alpha(g), graph_diameter(g))

    def test_constant_eigenvector_ratio_one(self, circle_graph_200):
        res = eigen_decompose(circle_graph_200, 2)
        for p in (2, 4, 8):
            ratio, _ = self.check(circle_graph_200, res, 0, p)
            assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_p1_ratio_one(self, circle_graph_200):
        res = eigen_decompose(circle_graph_200, 2)
        ratio, _ = self.check(circle_graph_200, res, 2, 1)
        assert ratio == pytest.approx(1.0)

    def test_ratio_monotone_in_p(self, circle_graph_200):
        res = eigen_decompose(circle_graph_200, 3)
        ratios = [self.check(circle_graph_200, res, 2, p)[0]
                  for p in (1, 2, 4, 8)]
        assert np.all(np.diff(ratios) >= -1e-12)

    def test_bound_shape_formula(self, circle_graph_200):
        g = circle_graph_200
        res = eigen_decompose(g, 1)
        lam = res.eigenvalues[1]
        alpha = moser_alpha(g)
        D = graph_diameter(g)
        _, shape = moser_check(g, res, 1, 4, alpha, D)
        want = 4.0 ** (2 * lam * alpha * g.epsilon**2) * math.exp(D * math.sqrt(lam))
        assert shape == pytest.approx(want, rel=1e-12)

    def test_ratio_is_the_check_ratio(self, circle_graph_200):
        res = eigen_decompose(circle_graph_200, 2)
        for p in (2, 4, 8, np.inf):
            assert moser_ratio(circle_graph_200, res, 2, p) == \
                self.check(circle_graph_200, res, 2, p)[0]

    @pytest.mark.parametrize("past", [False, True], ids=["minus-one", "count"])
    def test_ratio_rejects_k_outside_the_eigenvalues(self, circle_graph_200,
                                                     past):
        res = eigen_decompose(circle_graph_200, 2)
        k = len(res.eigenvalues) if past else -1
        with pytest.raises(ValueError, match="k must be an integer >= 0 and < 3"):
            moser_ratio(circle_graph_200, res, k, 2)

    @pytest.mark.parametrize("past", [False, True], ids=["minus-one", "count"])
    def test_check_rejects_k_outside_the_eigenvalues(self, circle_graph_200,
                                                     past):
        res = eigen_decompose(circle_graph_200, 2)
        k = len(res.eigenvalues) if past else -1
        with pytest.raises(ValueError, match="k must be an integer >= 0 and < 3"):
            moser_check(circle_graph_200, res, k, 2, 1.0, 1.0)

    @pytest.mark.parametrize("name, value", [("alpha_param", math.nan),
                                             ("alpha_param", -1.0),
                                             ("D", math.nan), ("D", -1.0)])
    def test_check_rejects_nan_or_negative_parameters(self, circle_graph_200,
                                                      name, value):
        res = eigen_decompose(circle_graph_200, 2)
        kwargs = {"alpha_param": 1.0, "D": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            moser_check(circle_graph_200, res, 1, 2, **kwargs)

    def test_run_moser_takes_one_diameter_per_cell(self, monkeypatch):
        calls = []

        def counted(g, *args, **kwargs):
            calls.append(g.n_vertices)
            return diameter(g, *args, **kwargs)

        diameter = regularity.graph_diameter
        monkeypatch.setattr(experiments, "graph_diameter", counted)
        monkeypatch.setattr(regularity, "graph_diameter", counted)
        cfg = ExperimentConfig(manifold="circle", n_list=[64, 128],
                               seeds=[1, 2], k_max=2)
        rows = experiments.run_moser(cfg)
        assert len(rows) == 4 * 2 * 4
        assert sorted(calls) == [64, 64, 128, 128]


def test_certificate_row_format(circle):
    cloud = sample_dataset(circle, DensitySpec("uniform"), 150, seed=1)
    g = gamma_N_eps(cloud, epsilon_schedule(150, 1))
    res = eigen_decompose(g, 2)
    cert = certify(g, spectral=res, seed=0)
    assert cert.nu == pytest.approx(math.log2(cert.Q))
    assert cert.Q >= 1.0 and cert.P >= 0.0 and cert.R >= 1.0


def test_certify_takes_no_diameter(circle, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify must not compute a diameter")

    monkeypatch.setattr(regularity, "graph_diameter", refuse)
    monkeypatch.setattr(regularity, "moser_alpha", refuse)
    cloud = sample_dataset(circle, DensitySpec("uniform"), 150, seed=1)
    g = gamma_N_eps(cloud, epsilon_schedule(150, 1))
    res = eigen_decompose(g, 2)
    cert = certify(g, spectral=res, seed=0)
    assert [(k, p) for k, p, _ in cert.moser_table] == \
        [(k, p) for k in (1, 2) for p in (2, 4, 8, np.inf)]
    assert all(r == moser_ratio(g, res, k, p) for k, p, r in cert.moser_table)


# float.hex of Q, P, R and graph_diameter at the regularity benchmark's
# sizes: every centre (n = 1500), 200 sampled centres and Lanczos Poincare
# balls (S^2 n = 4000), and a circle at n = 2000, the largest n whose
# doubling check still takes every centre
CERTIFICATE_PINS = {
    ("sphere", 1500, 1): ("0x1.d1e39fc4c7dd6p+2", "0x1.84ad6ea254805p+0",
                          "0x1.1d89d89d89d8ap+1", "0x1.d9863e9bc6274p+1"),
    ("sphere", 4000, 1): ("0x1.bdf017913bcd5p+2", "0x1.24772ff8236bbp+0",
                          "0x1.321642c8590b2p+1", "0x1.d056e3f66e25dp+1"),
    ("circle", 2000, 2): ("0x1.52d9b692a134cp+1", "0x1.1b4869788d74fp+0",
                          "0x1.5b6db6db6db6ep+0", "0x1.a379fcf408ca1p+1"),
}


@pytest.mark.parametrize("kind, n, seed", sorted(CERTIFICATE_PINS))
def test_certificate_is_pinned_at_benchmark_sizes(request, kind, n, seed):
    mfd = request.getfixturevalue("sphere2" if kind == "sphere" else kind)
    cloud = sample_dataset(mfd, DensitySpec("uniform"), n, seed=seed)
    g = gamma_N_eps(cloud, epsilon_schedule(n, mfd.m))
    cert = certify(g, eigen_decompose(g, 3), seed=seed)
    got = tuple(x.hex() for x in (cert.Q, cert.P, cert.R, graph_diameter(g)))
    assert got == CERTIFICATE_PINS[kind, n, seed]
