import math

import numpy as np
import pytest

from conftest import custom_graph
from spectral_limits.graph import dirichlet_energy, gamma_N_eps
from spectral_limits.regularity import (
    almost_regularity,
    ball_average,
    certify,
    doubling_constant,
    graph_diameter,
    moser_alpha,
    moser_check,
    nash_diagnostic,
    poincare_constant,
    smoothing_apply,
    weighted_p_norm,
)
from spectral_limits.sampling import DensitySpec, epsilon_schedule, sample_dataset
from spectral_limits.spectral import eigen_decompose


def star_k13():
    return custom_graph(4, [[0, 1], [0, 2], [0, 3]], [0.25] * 4, [1.0] * 3)


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

    def test_empty_subset(self, path3_gamma_N):
        with pytest.raises(ValueError):
            weighted_p_norm(path3_gamma_N, np.ones(3), 2, subset=[])


class TestBallAverage:
    def test_identity_below_eps(self, path3_gamma_N):
        phi = np.array([1.0, -2.0, 5.0])
        assert np.allclose(ball_average(path3_gamma_N, phi, 0.9), phi)

    def test_constant(self, path3_gamma_N):
        assert np.allclose(ball_average(path3_gamma_N, np.full(3, 7.0), 1.7), 7.0)

    def test_path_hand_average(self):
        g = custom_graph(3, [[0, 1], [1, 2]], [1.0] * 3, [1.0] * 2)
        out = ball_average(g, np.array([0.0, 3.0, 0.0]), 1.5)
        assert np.allclose(out, [1.5, 1.0, 1.5])


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

    def test_invariant_under_vertex_weight_scaling(self, circle_graph_200):
        g = circle_graph_200
        q1 = doubling_constant(g)
        g2 = custom_graph(g.n_vertices, g.edges, 7.5 * g.w_V, g.w_E,
                          eps=g.epsilon)
        assert doubling_constant(g2) == pytest.approx(q1, rel=1e-12)


class TestPoincare:
    def test_single_edge_sharp_constant(self):
        g = custom_graph(2, [[0, 1]], [1.0, 1.0], [1.0])
        # ||phi - mean||^2 = 1 and r^2 ||grad phi||^2 = 2.25 * 4 for (1,-1)
        assert poincare_constant(g, sigma=1.0) == pytest.approx(1.0 / 3.0,
                                                                rel=1e-10)

    def test_zero_weight_bridge_is_infinite(self):
        # the edge to vertex 2 exists but carries no Dirichlet weight
        g = custom_graph(3, [[0, 1], [1, 2]], [1.0] * 3, [1.0, 0.0])
        assert poincare_constant(g, sigma=1.0) == math.inf

    def test_sigma_two_finite_and_deterministic(self, circle):
        # enlarging sigma does NOT monotonically shrink the sharp constant
        # under the volume-normalized gradient norm (the averaging domain
        # grows too); what must hold: both finite, deterministic, and the
        # unnormalized-energy form of the same ratio is monotone
        cloud = sample_dataset(circle, DensitySpec("uniform"), 300, seed=2)
        g = gamma_N_eps(cloud, epsilon_schedule(300, 1))
        p1 = poincare_constant(g, sigma=1.0, center_sample=6, seed=3)
        p2 = poincare_constant(g, sigma=2.0, center_sample=6, seed=3)
        assert math.isfinite(p1) and math.isfinite(p2)
        assert p2 == poincare_constant(g, sigma=2.0, center_sample=6, seed=3)

    def test_sigma_monotone_unnormalized_ratio(self):
        # on one explicit ball pair: with the raw (unnormalized) edge-energy
        # sum, a larger gradient domain can only lower the sharp ratio
        g = custom_graph(3, [[0, 1], [1, 2]], [1.0] * 3, [1.0] * 2)
        phi = np.array([1.0, 0.0, 0.0])
        r = 1.5
        b = [0, 1]
        mean_b = phi[b].sum() / 2.0
        var = float(np.sum((phi[b] - mean_b) ** 2)) / 2.0
        energy_s1 = 2.0 * (1.0 - 0.0) ** 2          # edge (0,1) only
        energy_s2 = energy_s1 + 2.0 * 0.0           # edge (1,2) adds nothing
        assert var / (r * r * energy_s2) <= var / (r * r * energy_s1) + 1e-15

    def test_testfunction_mode_lower_bounds_exact(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 220, seed=9)
        g = gamma_N_eps(cloud, epsilon_schedule(220, 1))
        exact = poincare_constant(g, sigma=1.0, center_sample=4, seed=1)
        approx = poincare_constant(g, sigma=1.0, center_sample=4, seed=1,
                                   ball_limit=10)
        assert approx <= exact + 1e-9


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


class TestMoser:
    def test_constant_eigenvector_ratio_one(self, circle_graph_200):
        res = eigen_decompose(circle_graph_200, 2)
        for p in (2, 4, 8):
            ratio, _ = moser_check(circle_graph_200, res, 0, p)
            assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_p1_ratio_one(self, circle_graph_200):
        res = eigen_decompose(circle_graph_200, 2)
        ratio, _ = moser_check(circle_graph_200, res, 2, 1)
        assert ratio == pytest.approx(1.0)

    def test_ratio_monotone_in_p(self, circle_graph_200):
        res = eigen_decompose(circle_graph_200, 3)
        ratios = [moser_check(circle_graph_200, res, 2, p)[0]
                  for p in (1, 2, 4, 8)]
        assert np.all(np.diff(ratios) >= -1e-12)

    def test_bound_shape_formula(self, circle_graph_200):
        g = circle_graph_200
        res = eigen_decompose(g, 1)
        lam = res.eigenvalues[1]
        alpha = moser_alpha(g)
        D = graph_diameter(g)
        _, shape = moser_check(g, res, 1, 4)
        want = 4.0 ** (2 * lam * alpha * g.epsilon**2) * math.exp(D * math.sqrt(lam))
        assert shape == pytest.approx(want, rel=1e-12)


def test_certificate_row_format(circle):
    cloud = sample_dataset(circle, DensitySpec("uniform"), 150, seed=1)
    g = gamma_N_eps(cloud, epsilon_schedule(150, 1))
    res = eigen_decompose(g, 2)
    cert = certify(g, spectral=res, seed=0, moser_ks=(1, 2))
    assert cert.nu == pytest.approx(math.log2(cert.Q))
    assert cert.Q >= 1.0 and cert.P >= 0.0 and cert.R >= 1.0
