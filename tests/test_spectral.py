import math

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from conftest import custom_graph, fake_cloud
from spectral_limits import spectral
from spectral_limits.graph import gamma_N_eps, laplacian_apply
from spectral_limits.sampling import DensitySpec, epsilon_schedule, sample_dataset
from spectral_limits.spectral import (
    DisconnectedGraphError,
    SolverError,
    eigen_decompose,
    eigenvalue_estimate,
    rayleigh_quotient,
    volume_inner,
)


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

    def test_dense_vs_lanczos(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 50, seed=6)
        g = gamma_N_eps(cloud, 0.9)
        dense = eigen_decompose(g, 5, method="dense")
        lanc = eigen_decompose(g, 5, tol=0.0, method="lanczos")
        for k in range(1, 6):
            assert lanc.eigenvalues[k] == pytest.approx(
                dense.eigenvalues[k], rel=1e-9
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

    def test_k_bound(self, path3_gamma_N):
        with pytest.raises(ValueError, match="k < n"):
            eigen_decompose(path3_gamma_N, 3)

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
        gp = custom_graph(80, edges[order], w_V, g.w_E[order], eps=g.epsilon)
        resp = eigen_decompose(gp, 3)
        assert np.allclose(resp.eigenvalues, res.eigenvalues, atol=1e-9)
        # compare weighted spectral projectors per cluster (basis-free)
        for cid in set(res.cluster_ids.tolist()):
            cols = np.nonzero(res.cluster_ids == cid)[0]
            a = res.eigenvectors[:, cols]
            b = resp.eigenvectors[perm][:, cols]
            pa = a @ (a.T * g.w_V)
            pb = b @ (b.T * g.w_V)
            assert np.max(np.abs(pa - pb)) < 1e-9

    def test_cluster_ids_on_degenerate_spectrum(self):
        # complete graph: nonzero eigenvalue with full multiplicity
        edges = [[i, j] for i in range(5) for j in range(i + 1, 5)]
        g = custom_graph(5, edges, [1.0] * 5, [1.0] * len(edges))
        res = eigen_decompose(g, 4)
        assert res.cluster_ids[0] == 0
        assert len(set(res.cluster_ids[1:].tolist())) == 1


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


class TestEstimator:
    def test_k0(self, circle_graph_200):
        res = eigen_decompose(circle_graph_200, 1)
        assert eigenvalue_estimate(res, 0, 1) == pytest.approx(0.0, abs=1e-8)

    def test_arithmetic(self, path3_gamma_N):
        res = eigen_decompose(path3_gamma_N, 1)
        res.eigenvalues[1] = 0.34
        assert eigenvalue_estimate(res, 1, 1) == pytest.approx(1.02)
        res.eigenvalues[1] = 0.5
        assert eigenvalue_estimate(res, 1, 2) == pytest.approx(2.0)
