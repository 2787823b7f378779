import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse
from scipy.spatial import cKDTree

from conftest import custom_graph, fake_cloud
from test_cli_golden import PINNED_THREADS, SRC
from test_spectral import assert_same_csr
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
        upper = build_edges(cloud, 1.0)
        assert upper.indptr.tolist() == [0, 1, 2, 2]
        assert upper.indices.tolist() == [1, 2]
        assert pairs_of(upper).tolist() == [[0, 1], [1, 2]]

    def test_no_edges_below_min_gap(self):
        cloud = fake_cloud([0.0, 0.5, 1.2])
        assert len(build_edges(cloud, 0.4)) == 0

    def test_exact_distance_excluded(self):
        cloud = fake_cloud([0.0, 1.0])
        assert len(build_edges(cloud, 1.0)) == 0
        assert len(build_edges(cloud, 1.0 + 1e-9)) == 1

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, monkeypatch, eps):
        # NaN found no pair and inf every pair; neither may start a search
        def no_search(*args, **kwargs):
            raise AssertionError("a kd-tree was built")

        monkeypatch.setattr(graph_module, "cKDTree", no_search)
        cloud = fake_cloud([0.0, 0.5, 1.2])
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            build_edges(cloud, eps)

    def test_sorted_lexicographically(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 60, seed=4)
        edges = pairs_of(build_edges(cloud, 0.5))
        assert np.all(edges[:, 0] < edges[:, 1])
        keys = edges[:, 0] * 60 + edges[:, 1]
        assert np.all(np.diff(keys) > 0)


def pairs_of(upper):
    """The (E, 2) int64 pairs i < j of an ``UpperTriangle``, in its
    row-major order."""
    rows = np.repeat(np.arange(len(upper.indptr) - 1), np.diff(upper.indptr))
    return np.column_stack([rows, upper.indices]).astype(np.int64)


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
        assert np.array_equal(pairs_of(build_edges(fake_cloud(x), eps)),
                              pairs[d < eps])


    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_the_band_below_eps_is_measured_again(self, monkeypatch, dim):
        # the kd-tree's own distance decides a pair far inside eps; a pair at
        # eps or one ulp either side is measured again by the norm
        eps = 0.3
        x = boundary_cloud(dim, eps, 120, seed=dim)
        d = np.linalg.norm(x[0::2] - x[1::2], axis=1)
        measured = []
        within = graph_module._strictly_within

        def spied(x, i, j, eps):
            measured.append(len(i))
            return within(x, i, j, eps)

        monkeypatch.setattr(graph_module, "_strictly_within", spied)
        cloud = fake_cloud(x)
        assert np.array_equal(pairs_of(build_edges(cloud, eps)),
                              oracle_edges(cloud, eps))
        assert sum(measured) >= np.count_nonzero(d <= np.nextafter(eps, 0.0))

    def test_pairs_inside_the_band_are_not_measured_again(self, monkeypatch,
                                                          circle):
        measured = []
        within = graph_module._strictly_within

        def spied(x, i, j, eps):
            measured.append(len(i))
            return within(x, i, j, eps)

        monkeypatch.setattr(graph_module, "_strictly_within", spied)
        cloud = sample_dataset(circle, DensitySpec("uniform"), 2000, seed=1)
        eps = epsilon_schedule(2000, 1)
        upper = build_edges(cloud, eps)
        assert np.array_equal(pairs_of(upper), oracle_edges(cloud, eps))
        assert len(upper) > 90000 and sum(measured) < len(upper) // 1000

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
        edges, v0 = g.edges, _start_vector(g)
        monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", 7)
        assert len(list(_row_blocks(g.weighted_adjacency.indptr))) > 100
        assert np.array_equal(pairs_of(build_edges(cloud, eps)), edges)
        assert np.array_equal(g.edges, edges)
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
                upper = build_edges(cloud, eps)
                assert upper.indices.dtype == np.int32
                assert len(upper.indptr) == n + 1
                want = oracle_edges(cloud, eps)
                assert len(upper) == len(want)
                assert np.array_equal(pairs_of(upper), want)

    @pytest.mark.parametrize("blocks", [16, 10**4])
    @pytest.mark.parametrize("shape", MODELS)
    def test_row_blocks_give_the_oracle_array(self, request, monkeypatch,
                                              shape, blocks):
        # 16 blocks end in a short block at n = 300 and 700; 10**4 blocks
        # are one row each
        monkeypatch.setattr(graph_module, "_EDGE_SEARCH_BLOCKS", blocks)
        sizes = []
        search_tree = graph_module._search_tree

        def spied(points):
            sizes.append(len(points))
            return search_tree(points)

        monkeypatch.setattr(graph_module, "_search_tree", spied)
        mfd = request.getfixturevalue(shape)
        for n, seed in ((300, 1), (700, 2)):
            x = sample_dataset(mfd, DensitySpec("uniform"), n, seed=seed).embedded
            gap = cKDTree(x).query(x, k=2)[0][:, 1].min()
            beyond = 1.0 + 2.0 * np.linalg.norm(x, axis=1).max()
            twins = x.copy()
            twins[n // 2:n // 2 + 25] = x[:25]   # 25 pairs at distance 0
            for cloud, eps, count in (
                    (fake_cloud(x), 0.05, None), (fake_cloud(x), 0.5, None),
                    (fake_cloud(x), beyond, n * (n - 1) // 2),
                    (fake_cloud(x), gap / 2, 0),
                    (fake_cloud(twins), 1e-12, 25),
                    (fake_cloud(twins), 0.2, None)):
                sizes.clear()
                upper = build_edges(cloud, eps)
                block_rows = sizes[0::2]   # each block's tree, then the one ahead
                assert sum(block_rows) == n
                if blocks > n:
                    assert block_rows == [1] * n
                else:
                    assert len(block_rows) == blocks
                    assert 0 < block_rows[-1] < block_rows[0]
                assert upper.indptr.dtype == np.int64
                assert upper.indices.dtype == np.int32
                assert len(upper.indptr) == n + 1
                want = oracle_edges(cloud, eps)
                assert count is None or len(want) == count
                assert np.array_equal(pairs_of(upper), want)

    def test_no_edges_is_an_empty_triangle(self, sphere2):
        cloud = sample_dataset(sphere2, DensitySpec("uniform"), 50, seed=1)
        upper = build_edges(cloud, 1e-6)
        assert len(upper) == 0
        assert upper.indptr.tolist() == [0] * 51
        assert upper.indices.shape == (0,)
        assert upper.indices.dtype == np.int32

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
        g = custom_graph(6, given, np.ones(6), 2.5, eps=0.3)
        pairs = np.sort(given, axis=1)
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        want = oracle_start_vector(6, 0.3, pairs)
        assert np.array_equal(_start_vector(g), want)
        assert not np.array_equal(_start_vector(g),
                                  oracle_start_vector(6, 0.3, given))


EDGE_SEARCH_PEAK = '''
import json
from spectral_limits.geometry import Circle
from spectral_limits.graph import build_edges
from spectral_limits.sampling import DensitySpec, epsilon_schedule, sample_dataset


def high_water_mark():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024


cloud = sample_dataset(Circle(1.0), DensitySpec("uniform"), 8000, seed=1)
eps = epsilon_schedule(8000, 1)
before = high_water_mark()
upper = build_edges(cloud, eps)
print(json.dumps({"rise": high_water_mark() - before,
                  "triangle": upper.indptr.nbytes + upper.indices.nbytes}))
'''


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident set size from /proc")
def test_edge_search_resident_peak():
    # the kd-tree's C++ pair vector is invisible to tracemalloc, so the
    # search runs in a child python and reads its peak resident set size;
    # circle n = 8000 has 1.06M edges, and one pair list of them all, or
    # its copy, breaks this bound
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", EDGE_SEARCH_PEAK], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    peak = json.loads(proc.stdout)
    assert peak["rise"] < 4 * peak["triangle"]


OPERATOR_PEAK = '''
import json
from spectral_limits import spectral
from spectral_limits.experiments import Cell, ExperimentConfig, make_manifold
from spectral_limits.sampling import DensitySpec


def status(key):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key):
                return int(line.split()[1]) * 1024


class Built(Exception):
    pass


def built(B, *args):
    # the solve starts from the finished operator: stop there
    raise Built(status("VmHWM:"),
                B.data.nbytes + B.indices.nbytes + B.indptr.nbytes)


cfg = ExperimentConfig(manifold="circle", n_list=[4000, 8000], seeds=[1],
                       k_max=6)
mfd = make_manifold(cfg)
density = DensitySpec("uniform")
Cell(cfg, mfd, density, 4000, 1).spectrum(6)
cell = Cell(cfg, mfd, density, 8000, 1)
cell.graph
spectral._lanczos_above_null = built
before = status("VmRSS:")
try:
    cell.spectrum(6)
except Built as stop:
    peak, operator = stop.args
print(json.dumps({"rise": peak - before, "operator": operator}))
'''


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident set size from /proc")
def test_operator_build_resident_peak():
    # a sweep's first n = 8000 cell sets its peak while it builds the
    # operator, after an n = 4000 cell has left its heap behind; a whole
    # transposed copy of the edge triangle beside the operator's arrays
    # (1.33 times the operator) breaks this bound
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", OPERATOR_PEAK], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    peak = json.loads(proc.stdout)
    assert peak["rise"] < 1.2 * peak["operator"]

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
        assert isinstance(g.w_E, float)

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
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            custom_graph(2, [[0, 1]], [1.0, -1.0], [1.0])

    @pytest.mark.parametrize("name,bad", [
        ("epsilon", math.inf), ("epsilon", math.nan),
        ("w_V", math.inf), ("w_V", math.nan),
        ("w_E", math.inf), ("w_E", math.nan), ("w_E", 0.0), ("w_E", -1.0),
    ], ids=["epsilon-inf", "epsilon-nan", "w_V-inf", "w_V-nan",
            "w_E-inf", "w_E-nan", "w_E-zero", "w_E-negative"])
    def test_non_finite_input_rejected(self, name, bad):
        # w_V = 0 stays allowed: an isolated gamma_N vertex weighs 0
        args = {"epsilon": 1.0, "w_V": [1.0, 0.0, 1.0], "w_E": 1.0}
        if name == "w_V":
            args[name][1] = bad
        else:
            args[name] = bad
        path = custom_graph(3, [[0, 1], [1, 2]], np.ones(3)).upper
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            WeightedGraph(3, args["epsilon"], path, args["w_V"], args["w_E"])


class TestOneMatrix:
    def test_holds_w_E_both_ways(self):
        rng = np.random.default_rng(3)
        i, j = np.triu_indices(30, 1)
        keep = rng.random(len(i)) < 0.2
        edges = np.column_stack([i[keep], j[keep]])
        w_E = 1.7
        g = custom_graph(30, edges, np.ones(30), w_E)
        dense = np.zeros((30, 30))
        dense[edges[:, 0], edges[:, 1]] = w_E
        dense[edges[:, 1], edges[:, 0]] = w_E
        assert g.weighted_adjacency.format == "csr"
        assert g.weighted_adjacency.has_canonical_format
        assert np.array_equal(g.weighted_adjacency.toarray(), dense)
        assert g.degrees.tolist() == np.count_nonzero(dense, axis=1).tolist()

    def test_edges_and_weights_read_back_sorted(self, circle):
        g = custom_graph(5, [[3, 1], [0, 4], [2, 0], [1, 2]], np.ones(5), 0.5)
        assert g.edges.tolist() == [[0, 2], [0, 4], [1, 2], [1, 3]]
        assert g.edges.dtype == np.int64
        assert g.edges.flags.c_contiguous
        assert g.w_E == 0.5
        # the benchmark's graph span reads len(g.edges) as its edge count
        cloud = sample_dataset(circle, DensitySpec("uniform"), 300, seed=1)
        g = gamma_N_eps(cloud, epsilon_schedule(300, 1))
        assert len(g.edges) == len(g.upper) > 300
        assert np.array_equal(g.edges, pairs_of(g.upper))

    def test_no_edges_reads_back_empty(self):
        g = custom_graph(3, np.zeros((0, 2)), np.ones(3))
        assert g.edges.shape == (0, 2)
        assert g.edges.dtype == np.int64

    def test_no_copy_of_the_edges_beside_the_matrix(self, circle):
        n = 2000
        cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed=1)
        g = gamma_N_eps(cloud, epsilon_schedule(n, 1))
        n_edges = len(g.edges)
        assert n_edges > n
        # the graph holds its edge triangle and its one edge weight, a
        # float; no matrix is built until one is read
        held = [name for name, value in vars(g).items()
                if isinstance(value, np.ndarray) and len(value) >= n_edges]
        assert held == []
        assert isinstance(g.w_E, float)
        assert "weighted_adjacency" not in vars(g)
        # the edge list is derived on each access, never cached
        assert g.edges is not g.edges

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


class TestOneBuilder:
    """The eps-graphs go from ``build_edges`` straight to the matrix, with
    one weight written into its data; a graph on the oracle's sorted pairs,
    put in triangle form by ``custom_graph``, gives the same arrays."""

    @pytest.mark.parametrize("build", [gamma_N_eps, gamma_m_eps])
    @pytest.mark.parametrize("shape", ["circle", "sphere2", "torus", "spindle2"])
    def test_same_csr_as_the_custom_path(self, request, shape, build):
        mfd = request.getfixturevalue(shape)
        for n, seed in ((300, 1), (900, 4)):
            cloud = sample_dataset(mfd, DensitySpec("uniform"), n, seed=seed)
            eps = epsilon_schedule(n, mfd.m)
            g = build(cloud, eps)
            edges = oracle_edges(cloud, eps)
            assert len(edges) > n
            custom = custom_graph(n, edges, g.w_V, g.w_E, eps, kind=g.kind)
            for name in ("indptr", "indices", "data"):
                got = getattr(g.weighted_adjacency, name)
                want = getattr(custom.weighted_adjacency, name)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            assert np.array_equal(g.degrees, custom.degrees)


def oracle_symmetric_csr(n, upper, w, diag=None):
    """The former whole-triangle builder: the lower triangle is a transposed
    copy of the upper one, and each row is its lower entries, its diagonal
    entry, if any, and its upper ones, placed by E-long masks."""
    upper_ptr, upper_idx = upper.indptr, upper.indices
    n_edges = len(upper_idx)
    if diag is not None:
        w = 0.0 - w
    lower = sparse.csr_matrix((np.ones(n_edges, dtype=np.int8), upper_idx,
                               upper_ptr), shape=(n, n)).T.tocsr()
    n_diag = 0 if diag is None else 1
    idx = graph_module._index_dtype(max(2 * n_edges + n_diag * n, n))
    indptr = (upper_ptr + lower.indptr + n_diag * np.arange(n + 1)).astype(idx)
    before = np.diff(lower.indptr)
    counts = np.column_stack([before, np.full(n, n_diag), np.diff(upper_ptr)])
    part = np.repeat(np.tile(np.arange(3, dtype=np.int8), n), counts.ravel())
    indices = np.empty(indptr[-1], dtype=idx)
    indices[part == 0] = lower.indices
    indices[part == 2] = upper_idx
    data = np.full(indptr[-1], w)
    if diag is not None:
        on_diag = indptr[:-1] + before
        indices[on_diag] = np.arange(n)
        data[on_diag] = diag
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def oracle_operator_csr(n, upper, w, w_V, eps):
    """The former operator build: D - W with its explicit zeros, the row
    sums on the diagonal, then its zeros dropped and each row scaled."""
    adj = oracle_symmetric_csr(n, upper, w)
    lw = oracle_symmetric_csr(n, upper, w,
                              diag=np.asarray(adj.sum(axis=1)).ravel())
    lw.eliminate_zeros()
    s = 1.0 / np.sqrt(w_V)
    t = np.repeat(s, np.diff(lw.indptr))
    t *= lw.data
    t *= s[lw.indices]
    t *= 2.0 / eps**2
    lw.data[:] = t
    return lw


def random_graph(n, n_edges, seed):
    """A random graph with positive vertex weights."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(2 * n_edges, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)[:n_edges]
    return custom_graph(n, pairs[rng.permutation(len(pairs))],
                        rng.uniform(0.5, 2.0, n), rng.uniform(0.1, 3.0),
                        eps=0.3)


class TestBlockedBuilder:
    """The graph matrix and the operator, filled a block of triangle rows
    at a time, have the arrays and dtypes of the former whole-triangle
    build, whatever the block size."""

    def cases(self, circle, sphere2):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 900, seed=4)
        yield "eps-graph", gamma_N_eps(cloud, epsilon_schedule(900, 1))
        yield "random", random_graph(500, 6000, seed=1)
        empty = graph_module.UpperTriangle(np.zeros(6, dtype=np.int64),
                                           np.empty(0, dtype=np.int32))
        yield "empty", WeightedGraph(5, 1.0, empty, np.ones(5), 1.0)
        yield "isolated", custom_graph(5, [[0, 1], [1, 3], [3, 4]],
                                       np.ones(5), 2.0)
        # columns far above the block's rows, in more than 2^16 vertices
        yield "wide", random_graph(70000, 800, seed=3)
        cloud = sample_dataset(sphere2, DensitySpec("uniform"), 900, seed=4)
        g = gamma_N_eps(cloud, epsilon_schedule(900, 2))
        (_, hops), = _hop_blocks(g, [0, 7, 31])
        for row, k in zip(hops, (1, 2, 3)):
            idx = np.nonzero(row <= k)[0]
            yield f"ball-{k}", g._subgraph(idx)

    @pytest.mark.parametrize("block", [None, 7, 1])
    def test_same_arrays_as_the_oracle(self, monkeypatch, circle, sphere2,
                                       block):
        if block is not None:
            monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", block)
        seen = []
        for name, g in self.cases(circle, sphere2):
            n, upper, w = g.n_vertices, g.upper, g.w_E
            assert_same_csr(graph_module._symmetric_csr(g),
                            oracle_symmetric_csr(n, upper, w))
            assert_same_csr(graph_module._operator_csr(g),
                            oracle_operator_csr(n, upper, w, g.w_V, g.epsilon))
            seen.append(name)
        assert seen[:5] == ["eps-graph", "random", "empty", "isolated", "wide"]
        assert len(seen) == 8

    def test_one_block_is_one_pass(self, monkeypatch):
        g = random_graph(300, 2000, seed=4)
        transposed = []
        tocsc = sparse.csr_matrix.tocsc

        def spied(self, *args, **kwargs):
            transposed.append(self.nnz)
            return tocsc(self, *args, **kwargs)

        monkeypatch.setattr(sparse.csr_matrix, "tocsc", spied)
        graph_module._symmetric_csr(g)
        assert transposed == [2000]
        transposed.clear()
        monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", 500)
        graph_module._symmetric_csr(g)
        assert len(transposed) >= 4 and sum(transposed) == 2000
        assert max(transposed) <= 500 + max(np.diff(g.upper.indptr))

    def test_nonpositive_vertex_weight(self):
        g = custom_graph(3, [[0, 1], [1, 2]], [1.0, 0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match=r"nonpositive vertex weights at \[1\]"):
            eigen_decompose(g, 1)


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
