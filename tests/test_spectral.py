import gc
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import ArpackNoConvergence

from conftest import custom_graph, fake_cloud
from spectral_limits import graph, spectral
from spectral_limits.graph import dirichlet_energy, gamma_N_eps, gamma_m_eps, \
    laplacian_apply
from spectral_limits.config import ExperimentConfig, make_manifold
from spectral_limits.experiments import Cell
from spectral_limits.geometry import Circle
from spectral_limits.regularity import _hop_blocks
from spectral_limits.sampling import DensitySpec, epsilon_schedule, \
    sample_dataset
from spectral_limits.spectral import (
    DisconnectedGraphError,
    SolverError,
    eigen_decompose,
    volume_inner,
)


def rayleigh_quotient(g, phi) -> float:
    """Dirichlet energy over the squared weighted norm."""
    phi = np.asarray(phi, dtype=float)
    denom = volume_inner(g, phi, phi)
    if denom <= 0:
        raise ValueError("rayleigh_quotient of a zero function")
    return dirichlet_energy(g, phi) / denom


def cluster_ids(eigenvalues) -> np.ndarray:
    """Equal id = one near-degenerate cluster: neighbours closer than 1e-6
    times the top eigenvalue (at least 1) share an id."""
    scale = max(float(eigenvalues[-1]), 1.0)
    return np.r_[0, np.cumsum(np.diff(eigenvalues) >= 1e-6 * scale)]


class TestEigenDecompose:
    def test_kernel_eigenpair(self, circle_graph_200):
        res = eigen_decompose(circle_graph_200, 3)
        assert res.eigenvalues[0] == pytest.approx(0.0, abs=1e-8)
        v0 = res.eigenvectors[:, 0]
        assert np.std(v0) / np.mean(np.abs(v0)) < 1e-6

    def test_two_vertex_eigenvalue(self):
        g = custom_graph(2, [[0, 1]], [1.0, 1.0], [1.0])
        res = eigen_decompose(g, 1)
        assert res.eigenvalues[1] == pytest.approx(4.0, rel=1e-12)

    def test_orthonormal_gram(self, circle_graph_200):
        res = eigen_decompose(circle_graph_200, 4)
        k = res.eigenvectors.shape[1]
        gram = np.array([
            [volume_inner(circle_graph_200, res.eigenvectors[:, i],
                          res.eigenvectors[:, j]) for j in range(k)]
            for i in range(k)
        ])
        assert np.max(np.abs(gram - np.eye(k))) < 1e-8

    def test_residuals_small(self, circle_graph_200):
        res = eigen_decompose(circle_graph_200, 4)
        assert np.all(res.residuals < 1e-8)

    @pytest.mark.parametrize("shape,n", [("circle", 2000), ("sphere2", 400),
                                         ("circle", 300), ("sphere2", 900)])
    @pytest.mark.parametrize("build", ["gamma_N", "gamma_m"])
    def test_residuals_match_per_column_apply(self, request, shape, n, build):
        # the residuals come from the symmetrized operator, ||B psi - lam psi||
        # with psi = sqrt(w_V) phi, which is the w_V-norm of L phi - lam phi;
        # the two round differently, so they agree to a tolerance
        mfd = request.getfixturevalue(shape)
        cloud = sample_dataset(mfd, DensitySpec("uniform"), n, seed=1)
        eps = epsilon_schedule(n, mfd.m)
        g = gamma_N_eps(cloud, eps) if build == "gamma_N" else gamma_m_eps(cloud, eps)
        res = eigen_decompose(g, 5)
        phi, vals = res.eigenvectors, res.eigenvalues
        oracle = [
            spectral.volume_norm(g, laplacian_apply(g, phi[:, j]) - vals[j] * phi[:, j])
            for j in range(6)
        ]
        assert res.solver == ("lanczos" if n > spectral.DENSE_LIMIT else "dense")
        assert np.allclose(res.residuals, oracle, rtol=0.0, atol=1e-10)

    def test_dense_vs_lanczos(self, circle):
        # on the n = 600 graphs, at the default tolerance, Lanczos that also
        # had to find the zero eigenvalue missed it for (seed 1, k 1) and
        # (seed 2, k 3) and returned lam_1.. in its place
        cases = [(50, 6, 0.9, 5, 0.0)] + [
            (600, seed, epsilon_schedule(600, 1), k, 1e-10)
            for seed in (1, 2) for k in (0, 1, 3)
        ]
        for n, seed, eps, k, tol in cases:
            cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed=seed)
            g = gamma_N_eps(cloud, eps)
            dense = eigen_decompose(g, k, method="dense")
            lanc = eigen_decompose(g, k, tol=tol, method="lanczos")
            assert lanc.eigenvalues[0] == 0.0
            for j in range(1, k + 1):
                assert lanc.eigenvalues[j] == pytest.approx(
                    dense.eigenvalues[j], rel=1e-9
                )

    def test_disconnected_error_lists_components(self):
        g = custom_graph(5, [[0, 1], [2, 3], [3, 4]], [1.0] * 5, [1.0] * 3)
        with pytest.raises(ValueError, match="2 components"):
            eigen_decompose(g, 1)

    def test_isolated_vertex_is_a_disconnected_graph(self):
        # gamma_N gives an isolated vertex the weight 0; connectivity is
        # checked first, so this is a disconnected graph, not a weight error
        g = gamma_N_eps(fake_cloud([0.0, 0.5, 3.0], m=1), 1.0)
        assert g.w_V[2] == 0.0
        with pytest.raises(DisconnectedGraphError, match="2 components"):
            eigen_decompose(g, 1)

    def test_lanczos_nonconvergence_is_a_solver_error(self, circle_graph_200,
                                                       monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(1),
                                      np.zeros((200, 1)))

        monkeypatch.setattr(spectral, "eigsh", no_convergence)
        with pytest.raises(SolverError, match="got 1 of 4 eigenvalues"):
            eigen_decompose(circle_graph_200, 3, method="lanczos")

    @pytest.mark.parametrize("edges,w_V", [
        ([[0, 1], [1, 2]], [1.0, 1.0, 1.0]),
        ([[0, 1], [2, 3]], [1.0, 1.0, 1.0, 1.0]),
        ([[0, 1], [1, 2]], [1.0, 0.0, 1.0]),
    ], ids=["connected", "two-components", "zero-vertex-weight"])
    def test_unknown_method_before_the_operator(self, monkeypatch, edges, w_V):
        def built(g):
            raise AssertionError("the operator was built")

        monkeypatch.setattr(spectral, "_symmetrized_operator", built)
        g = custom_graph(len(w_V), edges, w_V)
        with pytest.raises(ValueError,
                           match="^unknown solver method 'bogus'$") as err:
            eigen_decompose(g, 1, method="bogus")
        assert not isinstance(err.value, DisconnectedGraphError)

    def test_random_walk_spectrum_box(self, circle_graph_200):
        g = circle_graph_200
        res = eigen_decompose(g, 6)
        assert np.all(res.eigenvalues <= 4.0 / g.epsilon**2 + 1e-9)
        assert np.all(res.eigenvalues >= -1e-9)

    def test_permutation_invariance(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 80, seed=12)
        g = gamma_N_eps(cloud, 0.6)
        res = eigen_decompose(g, 3)
        rng = np.random.default_rng(5)
        perm = rng.permutation(80)
        # vertex i of g becomes vertex perm[i] of gp
        edges = np.sort(perm[g.edges], axis=1)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        w_V = np.empty(80)
        w_V[perm] = g.w_V
        gp = custom_graph(80, edges[order], w_V, g.w_E, eps=g.epsilon)
        resp = eigen_decompose(gp, 3)
        assert np.allclose(resp.eigenvalues, res.eigenvalues, atol=1e-9)
        # compare weighted spectral projectors per cluster (basis-free)
        ids = cluster_ids(res.eigenvalues)
        for cid in set(ids.tolist()):
            cols = np.nonzero(ids == cid)[0]
            a = res.eigenvectors[:, cols]
            b = resp.eigenvectors[perm][:, cols]
            pa = a @ (a.T * g.w_V)
            pb = b @ (b.T * g.w_V)
            assert np.max(np.abs(pa - pb)) < 1e-9


def oracle_operator(g):
    """The operator as diags(s) @ L @ diags(s), the oracle for the entry
    order and the rounding of the one-pass build."""
    wa = g.weighted_adjacency
    lw = sparse.diags(np.asarray(wa.sum(axis=1)).ravel()) - wa
    s = 1.0 / np.sqrt(g.w_V)
    B = sparse.diags(s) @ lw @ sparse.diags(s)
    return (2.0 / g.epsilon**2) * B.tocsr()


def matrix_operator(adj, w_V, eps: float):
    """The operator built from the symmetric matrix ``adj`` as
    ``diags(d) - adj``, scaled in place a block of rows at a time: the
    oracle for the arrays of the build from the edge triangle."""
    lw = (sparse.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()
    s = 1.0 / np.sqrt(w_V)
    counts = np.diff(lw.indptr)
    for r0, r1 in graph._row_blocks(lw.indptr):
        a, b = lw.indptr[r0], lw.indptr[r1]
        t = np.repeat(s[r0:r1], counts[r0:r1])
        t *= lw.data[a:b]
        t *= s[lw.indices[a:b]]
        t *= 2.0 / eps**2
        lw.data[a:b] = t
    return lw


def operator(g):
    """The operator as ``eigen_decompose`` builds it, from the triangle."""
    return graph._operator_csr(g)


def assert_same_csr(a, b):
    assert a.format == b.format == "csr"
    for name in ("indptr", "indices", "data"):
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestSymmetrizedOperator:
    @pytest.mark.parametrize("shape,n", [("circle", 2000), ("sphere2", 1500)])
    @pytest.mark.parametrize("build", ["gamma_N", "gamma_m"])
    def test_same_arrays_as_the_oracle(self, request, shape, n, build):
        mfd = request.getfixturevalue(shape)
        cloud = sample_dataset(mfd, DensitySpec("uniform"), n, seed=1)
        eps = epsilon_schedule(n, mfd.m)
        g = gamma_N_eps(cloud, eps) if build == "gamma_N" else gamma_m_eps(cloud, eps)
        assert_same_csr(operator(g), oracle_operator(g))


class TestOperatorFromTheTriangle:
    """The operator built from the edge triangle has the arrays, dtypes and
    rounding of ``diags(d) - adj`` over the graph's matrix, so a solve
    needs only the triangle."""

    @pytest.mark.parametrize("build", [gamma_N_eps, gamma_m_eps])
    @pytest.mark.parametrize("shape", ["circle", "sphere2", "torus", "spindle2"])
    def test_eps_graphs(self, request, shape, build):
        mfd = request.getfixturevalue(shape)
        for n, seed in ((300, 1), (900, 4)):
            cloud = sample_dataset(mfd, DensitySpec("uniform"), n, seed=seed)
            g = build(cloud, epsilon_schedule(n, mfd.m))
            got = operator(g)
            assert "weighted_adjacency" not in vars(g)
            adj = g.weighted_adjacency
            assert np.array_equal(g.incident_edge_weight(),
                                  np.asarray(adj.sum(axis=1)).ravel())
            assert_same_csr(got, matrix_operator(adj, g.w_V, g.epsilon))

    @pytest.mark.parametrize("case", ["sphere", "random"])
    def test_poincare_balls(self, monkeypatch, sphere2, case):
        if case == "sphere":
            cloud = sample_dataset(sphere2, DensitySpec("uniform"), 900, seed=4)
            g = gamma_N_eps(cloud, epsilon_schedule(900, 2))
        else:
            rng = np.random.default_rng(8)
            n = 80
            i, j = np.triu_indices(n, 1)
            keep = rng.random(len(i)) < 0.1
            g = custom_graph(n, np.column_stack([i[keep], j[keep]]),
                             rng.uniform(0.5, 2.0, n), 1.5, eps=0.3)
        balls = 0
        for block in (None, 7, 1):
            if block is not None:
                monkeypatch.setattr(graph, "_BLOCK_ENTRIES", block)
            B = graph._operator_csr(g)
            for _, hops in _hop_blocks(g, [0, 7, 31]):
                for row in hops:
                    for k in (1, 2, 3):
                        idx = np.nonzero(row <= k)[0]
                        if len(idx) < 2:
                            continue
                        sub = g.weighted_adjacency[idx][:, idx]
                        w = g.w_V[idx]
                        assert_same_csr(graph._ball_operator(g, B, idx),
                                        matrix_operator(sub, w, g.epsilon))
                        balls += 1
        assert balls == 27

    def test_eigenvalues_do_not_depend_on_the_matrix(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 900, seed=4)
        eps = epsilon_schedule(900, 1)
        fresh, touched = gamma_N_eps(cloud, eps), gamma_N_eps(cloud, eps)
        touched.weighted_adjacency
        a, b = eigen_decompose(fresh, 4), eigen_decompose(touched, 4)
        assert "weighted_adjacency" not in vars(fresh)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


def components_oracle(adj):
    return csgraph.connected_components(adj, directed=False)[0] == 1


class TestIsConnected:
    @pytest.mark.parametrize("n,edges,connected", [
        (4, [[0, 1], [1, 2]], False),                 # isolated vertex
        (5, [[0, 1], [1, 2], [3, 4]], False),         # two parts
        (1, [], True),                                # one vertex
    ], ids=["isolated", "two-components", "one-vertex"])
    def test_small_cases(self, n, edges, connected):
        g = custom_graph(n, edges, np.ones(n))
        assert spectral._is_connected(g.weighted_adjacency) == connected
        assert components_oracle(g.weighted_adjacency) == connected

    def test_random_sparse_graphs(self):
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(200):
            n = int(rng.integers(1, 30))
            i, j = np.triu_indices(n, 1)
            keep = rng.random(len(i)) < rng.uniform(0.0, 0.3)
            g = custom_graph(n, np.column_stack([i[keep], j[keep]]),
                             np.ones(n), 0.5)
            want = components_oracle(g.weighted_adjacency)
            assert spectral._is_connected(g.weighted_adjacency) == want
            seen.add(want)
        assert seen == {True, False}

    def test_disconnected_error_text(self):
        g = custom_graph(6, [[0, 1], [2, 3], [3, 4]], np.ones(6))
        with pytest.raises(DisconnectedGraphError) as exc:
            eigen_decompose(g, 1)
        assert str(exc.value) == \
            "graph is disconnected: 3 components of sizes [2, 3, 1]"


def circle_cell(circle, n):
    cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed=1)
    return cloud, epsilon_schedule(n, 1)


def csr_nbytes(adj):
    return adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestCellMemory:
    """Allocation peaks of the largest sweep step, relative to the graph's
    CSR: circle n = 4000, 324k edges.  An (E, 2) edge list, a transposed
    copy of the constant weight, an (E, 2) float gather or a second COO
    copy beside the CSR breaks the graph bound; an int64 row array beside
    the operator breaks the solve bound."""

    def test_graph_build(self, circle):
        cloud, eps = circle_cell(circle, 4000)
        g, peak = traced_peak(gamma_N_eps, cloud, eps)
        assert peak < 1.5 * csr_nbytes(g.weighted_adjacency)

    @pytest.mark.parametrize("build", [gamma_N_eps, gamma_m_eps])
    def test_constructor_over_the_edge_list(self, circle, monkeypatch, build):
        # the edge set from build_edges is held by the caller; an E-long
        # weight array beside it, where one constant weight would do, breaks
        # this bound
        cloud, eps = circle_cell(circle, 4000)
        upper = graph.build_edges(cloud, eps)
        monkeypatch.setattr(graph, "build_edges", lambda *args: upper)
        g, peak = traced_peak(build, cloud, eps)
        assert peak < 1.75 * csr_nbytes(g.weighted_adjacency)

    def test_eigen_decompose(self, circle):
        cloud, eps = circle_cell(circle, 4000)
        g = gamma_N_eps(cloud, eps)
        res, peak = traced_peak(eigen_decompose, g, 6)
        assert res.solver == "lanczos"
        assert peak < 2.2 * csr_nbytes(g.weighted_adjacency)

    def test_spectrum_only_cell(self):
        # a spectrum reads the edge triangle and builds one matrix, the
        # operator; a graph matrix beside it breaks this bound
        cfg = ExperimentConfig(manifold="circle", n_list=[4000], seeds=[1],
                               k_max=6)
        mfd = make_manifold(cfg)
        cell = Cell(cfg, mfd, DensitySpec("uniform"), 4000, 1)
        cell.cloud
        res, peak = traced_peak(cell.spectrum, 6)
        assert res.solver == "lanczos"
        assert "weighted_adjacency" not in vars(cell.graph)
        assert peak < 1.6 * csr_nbytes(cell.graph.weighted_adjacency)


class TestRayleigh:
    def test_eigenvector_recovers_eigenvalue(self, circle_graph_200):
        res = eigen_decompose(circle_graph_200, 3)
        for k in range(4):
            rq = rayleigh_quotient(circle_graph_200, res.eigenvectors[:, k])
            assert rq == pytest.approx(res.eigenvalues[k], abs=1e-9)

    def test_constant(self, circle_graph_200):
        assert rayleigh_quotient(circle_graph_200, np.ones(200)) == 0.0

    def test_nonnegative(self, circle_graph_200):
        rng = np.random.default_rng(2)
        for _ in range(10):
            phi = rng.standard_normal(200)
            assert rayleigh_quotient(circle_graph_200, phi) >= 0.0

    def test_zero_rejected(self, circle_graph_200):
        with pytest.raises(ValueError):
            rayleigh_quotient(circle_graph_200, np.zeros(200))


def blocks_csr(n_blocks=12, size=9, seed=3):
    """A random symmetric CSR of ``n_blocks`` diagonal blocks, each with the
    same number of entries, between empty rows: it starts and ends with an
    empty row, and the row parts of 2, 3 and 4 begin at one."""
    rng = np.random.default_rng(seed)
    upper = sparse.triu(sparse.random(size, size, density=0.5, rng=rng), k=1)
    diag = [sparse.csr_matrix((1, 1))]
    for _ in range(n_blocks):
        upper.data = rng.standard_normal(upper.nnz)
        diag += [upper + upper.T + sparse.eye(size), sparse.csr_matrix((1, 1))]
    return sparse.block_diag(diag, format="csr")


@pytest.fixture(scope="module")
def circle_2000():
    cloud = sample_dataset(Circle(), DensitySpec("uniform"), 2000, seed=1)
    return gamma_N_eps(cloud, epsilon_schedule(2000, 1))


def force_parts(monkeypatch, parts, cpus=None):
    """Split every product into ``parts`` row parts, on ``cpus`` CPUs."""
    monkeypatch.setattr(spectral, "_part_count", lambda nnz: parts)
    if cpus is not None:
        monkeypatch.setattr(spectral, "_CPUS", cpus)


class TestSplitProduct:
    """``B @ x`` split into row parts: every part count, on any number of
    pool workers, gives the serial product bit for bit, since each row's
    sum runs over the same entries in the same order.  These tests are what
    make the private scipy kernel safe to call."""

    @pytest.fixture(params=["blocks", "circle-2000"])
    def operator_and_weights(self, request, circle_2000):
        if request.param == "blocks":
            B = blocks_csr()
            return B, np.linspace(0.5, 2.0, B.shape[0])
        return spectral._symmetrized_operator(circle_2000), circle_2000.w_V

    def test_part_bounds_start_at_empty_rows(self, monkeypatch):
        B = blocks_csr()
        empty = np.diff(B.indptr) == 0
        starts = []
        original = spectral._part
        monkeypatch.setattr(spectral, "_part", lambda B, x, y, lo, hi: (
            starts.append(lo), original(B, x, y, lo, hi)))
        for parts in (2, 3, 4):
            force_parts(monkeypatch, parts)
            spectral._product(B, np.ones(B.shape[0]))
        assert len(starts) == 9
        assert empty[0] and empty[-1] and all(empty[lo] for lo in starts)

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_lanczos_matvec(self, monkeypatch, operator_and_weights, parts,
                            cpus):
        B, w_V = operator_and_weights
        ops = []

        def captured(op, k, **kwargs):
            ops.append(op)
            return np.zeros(k), np.zeros((op.shape[0], k))

        monkeypatch.setattr(spectral, "eigsh", captured)
        spectral._lanczos_above_null(B, w_V, 2, None, 1e-10)
        u = np.sqrt(w_V / np.sum(w_V))
        shift = 2.0 * float(np.max(B.diagonal()))
        force_parts(monkeypatch, parts, cpus)
        rng = np.random.default_rng(parts)
        for _ in range(3):
            x = rng.standard_normal(B.shape[0])
            assert np.array_equal(ops[0].matvec(x),
                                  B @ x + (shift * (u @ x)) * u)

    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_eigen_decompose(self, monkeypatch, circle_2000, parts):
        serial = eigen_decompose(circle_2000, 6)
        force_parts(monkeypatch, parts)
        split = eigen_decompose(circle_2000, 6)
        assert split.solver == serial.solver == "lanczos"
        for name in ("eigenvalues", "eigenvectors", "residuals"):
            assert np.array_equal(getattr(split, name),
                                  getattr(serial, name)), name

    def test_part_count_of_the_sweep_operators(self, monkeypatch):
        # circle n = 8000 has 2,125,184 entries, n = 4000 has 651,760
        monkeypatch.setattr(spectral, "_CPUS", 8)
        assert spectral._part_count(2_125_184) == 4
        assert spectral._part_count(651_760) == 1
        monkeypatch.setattr(spectral, "_CPUS", 2)
        assert spectral._part_count(2_125_184) == 2
        monkeypatch.setattr(spectral, "_CPUS", 1)
        assert spectral._part_count(2_125_184) == 1

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_failing_part_raises_in_the_caller(self, monkeypatch, failing):
        B = blocks_csr()
        x = np.ones(B.shape[0])
        force_parts(monkeypatch, 2, cpus=2)
        original = spectral._part
        ran_on = []

        def part(B, x, y, lo, hi):
            ran_on.append(threading.get_ident())
            if (lo > 0) == (failing == "helper"):
                raise ZeroDivisionError(f"part at row {lo}")
            original(B, x, y, lo, hi)

        monkeypatch.setattr(spectral, "_part", part)
        with pytest.raises(ZeroDivisionError, match="part at row"):
            spectral._product(B, x)
        assert len(set(ran_on)) == 2
        # the helper is free again: the next product runs without a deadlock
        monkeypatch.setattr(spectral, "_part", original)
        for _ in range(3):
            assert np.array_equal(spectral._product(B, x), B @ x)

    def test_helpers_release_the_operator(self, monkeypatch, circle_2000):
        force_parts(monkeypatch, 2, cpus=2)
        B = spectral._symmetrized_operator(circle_2000)
        alive = weakref.ref(B)
        spectral._lanczos_above_null(B, circle_2000.w_V, 2,
                                     spectral._start_vector(circle_2000),
                                     1e-10)
        assert spectral._POOL is not None
        del B
        gc.collect()
        assert alive() is None

    def test_off_the_main_thread_no_helper_runs(self, monkeypatch):
        B = blocks_csr()
        x = np.ones(B.shape[0])
        force_parts(monkeypatch, 2, cpus=2)
        spectral._product(B, x)     # the pool exists from here on
        handed = []
        original = spectral._POOL.submit
        monkeypatch.setattr(spectral._POOL, "submit", lambda *task: (
            handed.append(task), original(*task))[1])
        out = []
        worker = threading.Thread(target=lambda: out.append(
            spectral._product(B, x)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert handed == []
        assert np.array_equal(out[0], B @ x)
        # positive control: on the main thread the second part goes out
        spectral._product(B, x)
        assert len(handed) == 1
