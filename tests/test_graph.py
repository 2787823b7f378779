import hashlib
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

from conftest import custom_graph, fake_cloud
from spectral_limits import graph as graph_module
from spectral_limits.graph import (
    WeightedGraph,
    _row_blocks,
    build_edges,
    dirichlet_energy,
    gamma_N_eps,
    gamma_m_eps,
    laplacian_apply,
    random_walk_matrix,
    save_graph_csv,
)
from spectral_limits.regularity import _hop_blocks, certify, moser_alpha, \
    smoothing_apply
from spectral_limits.sampling import DensitySpec, epsilon_schedule, sample_dataset
from spectral_limits.spectral import DENSE_LIMIT, _start_vector, eigen_decompose, \
    volume_inner


class TestBuildEdges:
    def test_collinear_path(self):
        cloud = fake_cloud([0.0, 0.5, 1.2])
        edges = build_edges(cloud, 1.0)
        assert edges.tolist() == [[0, 1], [1, 2]]

    def test_no_edges_below_min_gap(self):
        cloud = fake_cloud([0.0, 0.5, 1.2])
        assert len(build_edges(cloud, 0.4)) == 0

    def test_exact_distance_excluded(self):
        cloud = fake_cloud([0.0, 1.0])
        assert len(build_edges(cloud, 1.0)) == 0
        assert len(build_edges(cloud, 1.0 + 1e-9)) == 1

    def test_sorted_lexicographically(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 60, seed=4)
        edges = build_edges(cloud, 0.5)
        keys = edges[:, 0] * 60 + edges[:, 1]
        assert np.all(np.diff(keys) > 0)


def boundary_cloud(dim, eps, count, seed):
    """Far-apart point pairs whose computed chord ``np.linalg.norm`` is eps
    or one ulp either side, in turn; a pair is dropped when no nudge of its
    last coordinate by up to 64 ulps hits its target."""
    rng = np.random.default_rng(seed)
    targets = (np.nextafter(eps, 0.0), eps, np.nextafter(eps, 1.0))
    pts = []
    for p in range(count):
        a = rng.uniform(-1.0, 1.0, dim)
        a[0] += 4.0 * p
        u = rng.standard_normal(dim)
        b = a + eps * u / np.linalg.norm(u)
        for k in sorted(range(-64, 65), key=abs):
            c = b.copy()
            c[-1] += k * np.spacing(b[-1])
            if np.linalg.norm(a - c) == targets[p % 3]:
                pts += [a, c]
                break
    return np.array(pts)


class TestStrictBoundary:
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_keeps_what_the_norm_keeps(self, dim):
        eps = 0.3
        x = boundary_cloud(dim, eps, 120, seed=dim)
        d = np.linalg.norm(x[0::2] - x[1::2], axis=1)
        for target in (np.nextafter(eps, 0.0), eps, np.nextafter(eps, 1.0)):
            assert np.any(d == target)
        # squared distances against eps^2 decide some of these pairs the
        # other way, so a squared-distance shortcut fails here
        d2 = np.sum((x[0::2] - x[1::2]) ** 2, axis=1)
        assert np.any((d2 < eps * eps) != (d < eps))
        pairs = np.arange(len(x)).reshape(-1, 2)
        assert np.array_equal(build_edges(fake_cloud(x), eps), pairs[d < eps])


class TestRowBlocks:
    def test_blocks_cover_the_rows_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", 5)
        counts = np.array([3, 0, 5, 1, 9, 0, 2, 2, 4])
        indptr = np.r_[0, np.cumsum(counts)]
        blocks = list(_row_blocks(indptr))
        assert blocks[0][0] == 0 and blocks[-1][1] == len(counts)
        for (_, r1), (r0, _) in zip(blocks, blocks[1:]):
            assert r1 == r0
        for r0, r1 in blocks:
            # a block holds at most 5 entries, unless it is one longer row
            assert indptr[r1] - indptr[r0] <= 5 or r1 == r0 + 1
        assert (4, 5) in blocks

    def test_no_rows(self):
        assert list(_row_blocks(np.zeros(1, dtype=np.int32))) == []

    def test_small_blocks_change_no_result(self, monkeypatch, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 600, seed=2)
        eps = epsilon_schedule(600, 1)
        g = gamma_N_eps(cloud, eps)
        edges, w_E, v0 = g.edges, g.w_E, _start_vector(g)
        monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", 7)
        assert len(list(_row_blocks(g.weighted_adjacency.indptr))) > 100
        assert np.array_equal(build_edges(cloud, eps), edges)
        assert np.array_equal(g.edges, edges)
        assert np.array_equal(g.w_E, w_E)
        assert np.array_equal(_start_vector(g), v0)
        assert np.array_equal(_start_vector(g),
                              oracle_start_vector(600, eps, oracle_edges(cloud, eps)))


def oracle_edges(cloud, eps):
    """The former build: a kd-tree search, then a row sort and a lexsort of
    the pairs."""
    pairs = cKDTree(cloud.embedded).query_pairs(r=eps, output_type="ndarray")
    if len(pairs):
        d = np.linalg.norm(
            cloud.embedded[pairs[:, 0]] - cloud.embedded[pairs[:, 1]], axis=1
        )
        pairs = pairs[d < eps]
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    pairs.sort(axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


MODELS = ["circle", "sphere2", "torus", "spindle2", "spindle3"]


class TestBuildEdgesOracle:
    @pytest.mark.parametrize("shape", MODELS)
    def test_same_array_as_the_oracle(self, request, shape):
        mfd = request.getfixturevalue(shape)
        for n, seed in ((300, 1), (700, 2)):
            cloud = sample_dataset(mfd, DensitySpec("uniform"), n, seed=seed)
            for eps in (0.05, 0.2, 0.5, 1.0):
                edges = build_edges(cloud, eps)
                assert edges.dtype == np.int64
                assert edges.flags.c_contiguous
                assert np.array_equal(edges, oracle_edges(cloud, eps))

    def test_no_edges_is_an_empty_int64_array(self, sphere2):
        cloud = sample_dataset(sphere2, DensitySpec("uniform"), 50, seed=1)
        edges = build_edges(cloud, 1e-6)
        assert edges.shape == (0, 2)
        assert edges.dtype == np.int64

    @pytest.mark.parametrize("shape,n", [("circle", 2000), ("sphere2", 1500)])
    def test_start_vector_unchanged(self, request, shape, n):
        mfd = request.getfixturevalue(shape)
        cloud = sample_dataset(mfd, DensitySpec("uniform"), n, seed=1)
        eps = epsilon_schedule(n, mfd.m)
        g = gamma_N_eps(cloud, eps)
        assert n > DENSE_LIMIT      # the Lanczos branch hashes the pairs
        want = oracle_start_vector(n, eps, oracle_edges(cloud, eps))
        assert np.array_equal(_start_vector(g), want)

    def test_start_vector_hashes_the_sorted_pairs(self):
        given = np.array([[5, 2], [0, 3], [4, 1], [1, 0], [3, 5]])
        g = custom_graph(6, given, np.ones(6), np.arange(1.0, 6.0), eps=0.3)
        pairs = np.sort(given, axis=1)
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        want = oracle_start_vector(6, 0.3, pairs)
        assert np.array_equal(_start_vector(g), want)
        assert not np.array_equal(_start_vector(g),
                                  oracle_start_vector(6, 0.3, given))


def oracle_start_vector(n, eps, pairs):
    """The Lanczos start vector's formula: PCG64 seeded from the sha256 of
    n, eps and the (E, 2) int64 pair bytes."""
    h = hashlib.sha256()
    h.update(np.int64(n).tobytes())
    h.update(np.float64(eps).tobytes())
    h.update(np.ascontiguousarray(pairs, dtype=np.int64).tobytes())
    seed = int.from_bytes(h.digest()[:8], "little")
    v = np.random.Generator(np.random.PCG64(seed)).standard_normal(n)
    return v / np.linalg.norm(v)


class TestGraphConstructions:
    def test_gamma_m_weights(self):
        cloud = fake_cloud([0.0, 0.5, 1.2], m=1, total_volume=2.0 * math.pi)
        g = gamma_m_eps(cloud, 1.0)
        assert np.allclose(g.w_V, 1.0 / 3.0)
        # vol / (n (n-1) omega_1 eps) with omega_1 = 2
        assert np.allclose(g.w_E, 2.0 * math.pi / 12.0)
        assert np.sum(g.w_V) == pytest.approx(1.0)
        assert len(set(np.round(g.w_E, 15))) == 1

    def test_gamma_N_weights(self, path3_gamma_N):
        g = path3_gamma_N
        assert np.allclose(g.w_V, np.array([1.0, 2.0, 1.0]) / 12.0)
        assert np.allclose(g.w_E, 1.0 / 12.0)
        assert g.total_volume() == pytest.approx(2 * 2 / 12.0)  # handshake

    def test_gamma_N_empty_flags_isolated(self):
        cloud = fake_cloud([0.0, 5.0, 10.0])
        g = gamma_N_eps(cloud, 1.0)
        assert np.all(g.w_V == 0.0)
        assert np.flatnonzero(g.degrees == 0).tolist() == [0, 1, 2]

    def test_degree_cache(self, path3_gamma_N):
        assert path3_gamma_N.degrees.tolist() == [1, 2, 1]


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            custom_graph(2, [[0, 0]], [1.0, 1.0], [1.0])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            custom_graph(3, [[0, 1], [0, 1]], [1.0] * 3, [1.0, 1.0])
        # the same edge in the other orientation is a duplicate too
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(2, 1.0, [[0, 1], [1, 0]], [1, 1], [1, 1])

    @pytest.mark.parametrize("edge", [[0, 2], [-1, 1]])
    def test_endpoint_outside_the_vertices_rejected(self, edge):
        with pytest.raises(ValueError, match="endpoints"):
            custom_graph(2, [edge], [1.0, 1.0], [1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            custom_graph(2, [[0, 1]], [1.0, -1.0], [1.0])


class TestOneMatrix:
    def test_holds_w_E_both_ways(self):
        rng = np.random.default_rng(3)
        i, j = np.triu_indices(30, 1)
        keep = rng.random(len(i)) < 0.2
        edges = np.column_stack([i[keep], j[keep]])
        w_E = rng.uniform(0.5, 2.0, len(edges))
        g = custom_graph(30, edges, np.ones(30), w_E)
        dense = np.zeros((30, 30))
        dense[edges[:, 0], edges[:, 1]] = w_E
        dense[edges[:, 1], edges[:, 0]] = w_E
        assert g.weighted_adjacency.format == "csr"
        assert g.weighted_adjacency.has_canonical_format
        assert np.array_equal(g.weighted_adjacency.toarray(), dense)
        assert g.degrees.tolist() == np.count_nonzero(dense, axis=1).tolist()

    def test_edge_order_and_orientation_do_not_matter(self, path3_gamma_N):
        g = path3_gamma_N
        flipped = custom_graph(3, [[2, 1], [1, 0]], g.w_V, g.w_E,
                               eps=g.epsilon)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(flipped.weighted_adjacency, name),
                                  getattr(g.weighted_adjacency, name))

    def test_zero_weight_edge_is_an_edge(self):
        g = custom_graph(3, [[0, 1], [1, 2]], [1.0] * 3, [1.0, 0.0])
        assert g.weighted_adjacency.nnz == 4       # two explicit zeros
        assert g.degrees.tolist() == [1, 2, 1]
        (_, hops), = _hop_blocks(g, [0])
        assert hops.tolist() == [[0.0, 1.0, 2.0]]
        assert csgraph.connected_components(g.weighted_adjacency)[0] == 1

    def test_edges_and_weights_read_back_sorted(self):
        g = custom_graph(5, [[3, 1], [0, 4], [2, 0], [1, 2]], np.ones(5),
                         [0.5, 2.0, 0.0, 1.5])
        assert g.edges.tolist() == [[0, 2], [0, 4], [1, 2], [1, 3]]
        assert g.edges.dtype == np.int64
        assert g.edges.flags.c_contiguous
        # the explicit zero is kept, in its edge's place
        assert g.w_E.tolist() == [0.0, 2.0, 1.5, 0.5]

    def test_no_edges_reads_back_empty(self):
        g = custom_graph(3, np.zeros((0, 2)), np.ones(3), [])
        assert g.edges.shape == (0, 2)
        assert g.edges.dtype == np.int64
        assert g.w_E.shape == (0,)

    def test_no_copy_of_the_edges_beside_the_matrix(self, circle):
        n = 2000
        cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed=1)
        g = gamma_N_eps(cloud, epsilon_schedule(n, 1))
        n_edges = len(g.edges)
        assert n_edges > n
        held = [name for name, value in vars(g).items()
                if isinstance(value, np.ndarray) and len(value) >= n_edges]
        assert held == []
        # the views are derived on each access, never cached
        assert g.edges is not g.edges
        assert g.w_E is not g.w_E

    def test_no_second_matrix_after_construction(self, circle_cloud_200,
                                                 monkeypatch):
        g = gamma_N_eps(circle_cloud_200, epsilon_schedule(200, 1))

        def refuse(*args, **kwargs):
            raise AssertionError("a second sparse matrix was assembled")

        monkeypatch.setattr(sparse, "coo_matrix", refuse)
        phi = np.cos(np.arange(200.0))
        res = eigen_decompose(g, 3)
        certify(g, res)
        laplacian_apply(g, phi)
        smoothing_apply(g, phi)
        moser_alpha(g)


class TestLaplacian:
    def test_constant_in_kernel(self, path3_gamma_N):
        out = laplacian_apply(path3_gamma_N, np.ones(3))
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_two_vertex_example(self):
        g = custom_graph(2, [[0, 1]], [1.0, 1.0], [1.0])
        out = laplacian_apply(g, np.array([1.0, 0.0]))
        assert np.allclose(out, [2.0, -2.0])

    def test_gamma_N_path_indicator(self, path3_gamma_N):
        out = laplacian_apply(path3_gamma_N, np.array([1.0, 0.0, 0.0]))
        # weights cancel to 2 eps^-2 (phi(x) - mean over neighbors)
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(2.0 * (0.0 - 0.5))

    def test_zero_weight_vertex_named(self):
        g = custom_graph(3, [[0, 1]], [1.0, 1.0, 0.0], [1.0])
        with pytest.raises(ValueError, match="2"):
            laplacian_apply(g, np.zeros(3))

    def test_self_adjoint_and_nonnegative(self, circle_graph_200):
        g = circle_graph_200
        rng = np.random.default_rng(0)
        for _ in range(20):
            phi = rng.standard_normal(g.n_vertices)
            psi = rng.standard_normal(g.n_vertices)
            lhs = volume_inner(g, laplacian_apply(g, phi), psi)
            rhs = volume_inner(g, phi, laplacian_apply(g, psi))
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1, abs(lhs)))
            assert volume_inner(g, phi, laplacian_apply(g, phi)) >= -1e-12

    def test_block_is_the_columns_applied_one_by_one(self, circle_graph_200):
        g = circle_graph_200
        block = np.random.default_rng(4).standard_normal((g.n_vertices, 5))
        out = laplacian_apply(g, block)
        assert out.shape == block.shape
        for j in range(5):
            assert np.array_equal(out[:, j], laplacian_apply(g, block[:, j]))

    def test_energy_equals_quadratic_form(self, circle_graph_200):
        g = circle_graph_200
        rng = np.random.default_rng(3)
        phi = rng.standard_normal(g.n_vertices)
        quad = volume_inner(g, phi, laplacian_apply(g, phi))
        assert dirichlet_energy(g, phi) == pytest.approx(quad, rel=1e-10)


class TestRandomWalkMatrix:
    def test_kernel_of_constants(self, circle):
        # row-stochastic up to one rounding of sum(1/deg) per row
        cloud = sample_dataset(circle, DensitySpec("uniform"), 120, seed=9)
        L = random_walk_matrix(cloud, 0.4)
        assert np.max(np.abs(L @ np.ones(120))) <= 1e-12

    def test_matches_gamma_N_action(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 120, seed=9)
        eps = 0.4
        L = random_walk_matrix(cloud, eps)
        g = gamma_N_eps(cloud, eps)
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = rng.standard_normal(120)
            assert np.max(np.abs(L @ v - laplacian_apply(g, v))) <= 1e-12

    def test_path_row(self):
        cloud = fake_cloud([0.0, 0.5, 1.2])
        L = random_walk_matrix(cloud, 1.0)
        out = L @ np.array([1.0, 0.0, 0.0])
        assert out[0] == pytest.approx(2.0)

    def test_spectrum_box(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 90, seed=5)
        eps = 0.5
        L = random_walk_matrix(cloud, eps).toarray()
        lam = np.linalg.eigvals(L)
        assert np.all(lam.real >= -1e-9)
        assert np.all(lam.real <= 4.0 / eps**2 + 1e-9)

    def test_zero_degree_errors(self):
        cloud = fake_cloud([0.0, 5.0])
        with pytest.raises(ValueError, match="zero-degree"):
            random_walk_matrix(cloud, 1.0)


class TestDirichletEnergy:
    def test_constant(self, path3_gamma_N):
        assert dirichlet_energy(path3_gamma_N, np.ones(3)) == 0.0

    def test_single_edge_double_count(self):
        g = custom_graph(2, [[0, 1]], [1.0, 1.0], [1.0])
        assert dirichlet_energy(g, np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_quadratic_scaling(self, circle_graph_200):
        rng = np.random.default_rng(8)
        phi = rng.standard_normal(circle_graph_200.n_vertices)
        e1 = dirichlet_energy(circle_graph_200, phi)
        e3 = dirichlet_energy(circle_graph_200, 3.0 * phi)
        assert e3 == pytest.approx(9.0 * e1, rel=1e-12)


def test_serialization_round_headers(tmp_path, path3_gamma_N):
    epath = tmp_path / "edges.csv"
    vpath = tmp_path / "vertices.csv"
    save_graph_csv(path3_gamma_N, epath, vpath)
    etext = epath.read_text().splitlines()
    vtext = vpath.read_text().splitlines()
    assert etext[0].startswith("# eps=1 kind=gamma_N n=3")
    assert etext[1] == "i,j,w_E"
    assert vtext[1] == "i,w_V,deg"
    assert len(etext) == 2 + 2 and len(vtext) == 2 + 3
