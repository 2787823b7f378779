import math

import numpy as np
import pytest
from scipy.integrate import quad

from spectral_limits.geometry import Circle, FlatTorus, Sphere, _sn, \
    sphere_area, unit_ball_volume
from spectral_limits.graph import gamma_N_eps
from spectral_limits.interpolation import (
    KernelContext,
    TestFunction,
    discretize,
    energy_comparison_report,
    interpolate,
    l2_norm_comparison_report,
    psi_eps,
    theta_K_eps,
    theta_eps,
    theta_n_eps,
)
from spectral_limits.sampling import DensitySpec, epsilon_schedule, \
    sample_dataset


class TestPsi:
    def test_at_zero(self):
        assert psi_eps(0.0, 0.3) == 0.5

    def test_at_boundary(self):
        assert psi_eps(0.3, 0.3) == 0.0
        assert psi_eps(0.31, 0.3) == 0.0

    def test_halfway(self):
        assert psi_eps(0.15, 0.3) == pytest.approx(0.375)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            psi_eps(-0.1, 0.3)


@pytest.mark.parametrize("call, match", [
    (lambda c: psi_eps(0.1, 0.0), "eps must be positive and finite, got 0.0"),
    (lambda c: psi_eps(0.1, -0.1), "eps must be positive and finite, got -0.1"),
    (lambda c: psi_eps(0.1, math.nan), "eps must be positive and finite, got nan"),
    (lambda c: psi_eps(math.nan, 0.3), "dist must be nonnegative"),
    (lambda c: KernelContext(c, math.nan), "eps must be positive and finite"),
    (lambda c: theta_eps(c.manifold, DensitySpec("uniform"), [0.0], eps=-0.1),
     "eps must be positive and finite, got -0.1"),
    (lambda c: theta_eps(Sphere(2), DensitySpec("uniform"), [1.0, 0.5],
                         eps=math.nan), "eps must be positive and finite"),
    (lambda c: theta_K_eps(2, 1.0, math.nan), "eps must be positive and finite"),
    (lambda c: theta_K_eps(2, math.nan, 0.3), "K must be positive and finite"),
    (lambda c: theta_K_eps(2, 1.0, -0.3),
     "eps must be positive and finite, got -0.3"),
], ids=["psi-eps-0", "psi-eps-negative", "psi-eps-nan", "psi-distance-nan",
        "context-eps-nan", "theta-circle-eps-negative", "theta-sphere-eps-nan",
        "theta_K-eps-nan", "theta_K-K-nan", "theta_K-eps-negative"])
def test_kernels_reject_bad_input(circle, call, match):
    cloud = sample_dataset(circle, DensitySpec("uniform"), 5, seed=0)
    with pytest.raises(ValueError, match=match):
        call(cloud)


class TestThetaN:
    def test_two_point_cloud(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 2, seed=0)
        eps = 0.4
        ctx = KernelContext(cloud, eps)
        th0 = cloud.intrinsic[0, 0]
        x = np.array([th0 + eps / 2.0])
        d1 = circle.geodesic(x, cloud.intrinsic[1])
        want = psi_eps(eps / 2.0, eps) + psi_eps(min(d1, eps), eps)
        assert theta_n_eps(ctx, x) == pytest.approx(want, rel=1e-12)

    def test_out_of_range_zero(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 4, seed=1)
        ctx = KernelContext(cloud, 0.01)
        far = np.array([cloud.intrinsic[0, 0] + math.pi])
        candidates = circle.geodesic_to_many(far, cloud.intrinsic)
        if np.all(candidates > 0.01):
            assert theta_n_eps(ctx, far) == 0.0

    def test_self_term_included(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 30, seed=2)
        ctx = KernelContext(cloud, 0.05)
        x = cloud.intrinsic[7]
        assert theta_n_eps(ctx, x) >= 0.5 / (cloud.n - 1)


class TestThetaContinuum:
    def test_circle_uniform_closed_form(self, circle):
        x = np.array([1.0])
        for eps in (0.1, 0.4):
            want = eps / (3.0 * math.pi)
            got = theta_eps(circle, DensitySpec("uniform"), x, eps=eps)
            assert got == pytest.approx(want, rel=1e-9)

    def test_vanishes_with_eps(self, circle):
        x = np.array([0.0])
        assert theta_eps(circle, DensitySpec("uniform"), x, eps=1e-4) < 1e-4

    def test_sphere_by_parts_oracle(self, sphere2):
        # (1/4pi) * 2pi * int_0^eps (1 - (r/eps)^2)/2 sin r dr; by parts
        # int r^2 sin r = -r^2 cos r + 2 r sin r + 2 cos r - 2, giving
        # integral = [1 - (2/eps) sin eps + (2/eps^2)(1 - cos eps)] / 2
        eps = 0.7
        c, s = math.cos(eps), math.sin(eps)
        integral = 0.5 * (1.0 - (2.0 / eps) * s + (2.0 / eps**2) * (1.0 - c))
        want = integral / 2.0
        x = np.array([0.0, 0.0, 1.0])
        got = theta_eps(sphere2, DensitySpec("uniform"), x, eps=eps)
        assert got == pytest.approx(want, rel=1e-9)

    def test_cosine_tilt_density_window(self, circle):
        dens = DensitySpec("cosine_tilt", amplitude=0.3)
        x = np.array([0.5])
        eps = 0.2
        want = quad(
            lambda s: psi_eps(abs(s), eps) * (1 + 0.3 * math.cos(0.5 + s))
            / (2 * math.pi), -eps, eps,
        )[0]
        got = theta_eps(circle, dens, x, eps=eps)
        assert got == pytest.approx(want, rel=1e-8)

    def test_torus_closed_form(self, torus):
        # below the injectivity radius the ball is a flat disc at every
        # point: (1/vol) 2 pi int_0^eps (1 - (r/eps)^2)/2 r dr = pi eps^2 / 4
        x = np.array([0.3, 0.7])
        for eps in (0.2, 0.4):
            want = math.pi * eps**2 / (4.0 * torus.total_volume)
            got = theta_eps(torus, DensitySpec("uniform"), x, eps=eps)
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("periods", [(1.0,), (1.0, 2.0), (1.0, 1.5, 2.0)])
    def test_torus_matches_tight_quadrature(self, periods):
        torus = FlatTorus(periods)
        m, eps = torus.m, 0.37
        val, _ = quad(lambda r: psi_eps(r, eps) * r ** (m - 1), 0.0, eps,
                      epsabs=0.0, epsrel=1e-13)
        want = m * unit_ball_volume(m) * val / torus.total_volume
        got = theta_eps(torus, DensitySpec("uniform"), np.full(m, 0.1), eps=eps)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("amplitude", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
    def test_circle_matches_tight_quadrature(self, R, amplitude):
        # eps = 10 is beyond pi R: the window is then the whole circle
        dens = DensitySpec("cosine_tilt", amplitude=amplitude)
        for x in (0.0, 1.3):
            for eps in (0.01, 0.3, 1.0, 3.0, 10.0):
                half = min(eps, math.pi * R)
                want, _ = quad(
                    lambda s: psi_eps(abs(s), eps)
                    * (1.0 + amplitude * math.cos(x + s / R))
                    / (2 * math.pi * R),
                    -half, half, epsabs=0.0, epsrel=1e-13, limit=200)
                got = theta_eps(Circle(R), dens, np.array([x]), eps=eps)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (x, eps)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
    def test_sphere_matches_tight_quadrature(self, m, R):
        sphere = Sphere(m, R)
        for eps in (0.01, 0.3, 1.0, 3.0, 10.0):
            top = min(eps, math.pi * R)
            val, _ = quad(lambda r: psi_eps(r, eps) * (R * math.sin(r / R))
                          ** (m - 1), 0.0, top, epsabs=0.0, epsrel=1e-13,
                          limit=200)
            want = sphere_area(m - 1) * val / sphere.total_volume
            got = theta_eps(sphere, DensitySpec("uniform"), np.eye(m + 1)[0],
                            eps=eps)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), eps

    @pytest.mark.parametrize("model, x, eps, match", [
        ("torus", [0.3, 0.7], 0.6,
         "torus kernel mass needs eps below min period/2"),
        ("spindle2", [1.2, 1.0, 0.0], 0.3, "unsupported manifold 'spindle'"),
    ], ids=["torus-eps-0.6", "spindle"])
    def test_rejected(self, request, model, x, eps, match):
        mfd = request.getfixturevalue(model)
        with pytest.raises(ValueError, match=match):
            theta_eps(mfd, DensitySpec("uniform"), np.array(x), eps=eps)


class TestThetaK:
    def test_m1_closed_form(self):
        for eps in (0.2, 0.9):
            assert theta_K_eps(1, 1.0, eps) == pytest.approx(2.0 * eps / 3.0,
                                                             rel=1e-10)

    def test_m2_by_parts_oracle(self):
        # 2 pi int_0^0.5 (1 - 4 r^2)/2 sinh r dr via the antiderivative
        e = 0.5
        ch, sh = math.cosh(e), math.sinh(e)
        integral = (ch - 1.0) - 4.0 * (e**2 * ch - 2.0 * e * sh + 2.0 * ch - 2.0)
        want = math.pi * integral
        assert theta_K_eps(2, 1.0, e) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_tight_quadrature(self, m):
        for K in (1e-3, 1.0, 100.0):
            for eps in (1e-3, 0.1, 0.5, 1.0, 2.0):
                val, _ = quad(lambda r: psi_eps(r, eps) * _sn(K, r)
                              ** (m - 1), 0.0, eps, epsabs=0.0, epsrel=1e-13,
                              limit=200)
                want = m * unit_ball_volume(m) * val
                assert theta_K_eps(m, K, eps) == pytest.approx(
                    want, rel=1e-12, abs=0.0), (K, eps)

    def test_euclidean_limit(self):
        # K -> 0 proxy: m omega_m int psi r^{m-1} dr = omega_m eps^m / (m+2)
        from spectral_limits.geometry import unit_ball_volume

        for m in (1, 2, 3):
            eps = 0.3
            want = unit_ball_volume(m) * eps**m / (m + 2)
            got = theta_K_eps(m, 1e-9, eps)
            assert got == pytest.approx(want, rel=1e-7)


class TestInterpolate:
    def test_partition_of_unity(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 200, seed=5)
        ctx = KernelContext(cloud, 0.3)
        rng = np.random.default_rng(0)
        ones = np.ones(200)
        checked = 0
        while checked < 100:
            x = circle.uniform_intrinsic(1, rng)[0]
            if theta_n_eps(ctx, x) > 0:
                assert interpolate(ctx, ones, x) == pytest.approx(1.0, abs=1e-12)
                checked += 1

    def test_range_preserving_and_linear(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 100, seed=6)
        ctx = KernelContext(cloud, 0.4)
        rng = np.random.default_rng(1)
        phi = rng.standard_normal(100)
        psi = rng.standard_normal(100)
        x = cloud.intrinsic[3]
        v = interpolate(ctx, phi, x)
        assert np.min(phi) - 1e-12 <= v <= np.max(phi) + 1e-12
        assert interpolate(ctx, 2.0 * phi + psi, x) == pytest.approx(
            2.0 * v + interpolate(ctx, psi, x), rel=1e-10
        )

    def test_single_in_range_point(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 5, seed=7)
        eps = 0.05
        ctx = KernelContext(cloud, eps)
        phi = np.arange(5.0)
        d = circle.geodesic_to_many(cloud.intrinsic[2], cloud.intrinsic)
        d[2] = np.inf
        if np.all(d[np.arange(5) != 2] > eps):
            x = cloud.intrinsic[2]
            assert interpolate(ctx, phi, x) == pytest.approx(2.0)

    def test_out_of_support_error(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 3, seed=8)
        ctx = KernelContext(cloud, 1e-6)
        x = np.array([cloud.intrinsic[0, 0] + 1.0])
        with pytest.raises(ValueError, match="support"):
            interpolate(ctx, np.zeros(3), x)


class TestDiscretize:
    def test_constant(self, circle_cloud_200):
        f = lambda zi, ze: np.ones(len(np.atleast_2d(zi)))
        assert np.allclose(discretize(f, circle_cloud_200), 1.0)

    def test_cosine_values(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 4, seed=3)
        cloud.intrinsic[:3, 0] = [0.0, math.pi / 2.0, math.pi]
        f = lambda zi, ze: np.cos(np.atleast_2d(zi)[:, 0])
        vals = discretize(f, cloud)
        assert vals[:3] == pytest.approx([1.0, 0.0, -1.0], abs=1e-15)

    def test_linear(self, circle_cloud_200):
        f = lambda zi, ze: np.cos(np.atleast_2d(zi)[:, 0])
        g = lambda zi, ze: np.sin(np.atleast_2d(zi)[:, 0])
        h = lambda zi, ze: 2.0 * f(zi, ze) + 3.0 * g(zi, ze)
        assert np.allclose(
            discretize(h, circle_cloud_200),
            2.0 * discretize(f, circle_cloud_200)
            + 3.0 * discretize(g, circle_cloud_200),
        )


def circle_cos_testfunction(radius=1.0):
    return TestFunction(
        name="cos",
        values=lambda zi, ze: np.cos(np.atleast_2d(zi)[:, 0]),
        grad_sq_rho2=1.0 / (4.0 * math.pi * radius**3),
        sq_rho=0.5,
        sq_rho2=1.0 / (4.0 * math.pi * radius),
    )


class TestComparisonReports:
    @pytest.mark.parametrize("given", [{}, {"grad_sq_rho2": 0.0},
                                       {"sq_rho": 1.0, "sq_rho2": 1.0}])
    def test_every_integral_is_required(self, given):
        with pytest.raises(TypeError):
            TestFunction("one", lambda zi, ze: 1.0, **given)

    def test_constant_function_zero_energy(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 100, seed=1)
        f = TestFunction("one", lambda zi, ze: np.ones(len(np.atleast_2d(zi))),
                         grad_sq_rho2=0.0, sq_rho=1.0, sq_rho2=1.0 / (2 * math.pi))
        rep = energy_comparison_report(gamma_N_eps(cloud, 0.3), cloud, f)
        assert rep.discrete == 0.0
        assert rep.continuous == 0.0

    def test_circle_cosine_quarter_tolerance(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 4000, seed=11)
        eps = epsilon_schedule(4000, 1)
        rep = energy_comparison_report(gamma_N_eps(cloud, eps), cloud,
                                       circle_cos_testfunction())
        assert rep.continuous == pytest.approx(1.0 / (12.0 * math.pi), rel=1e-12)
        assert rep.discrete == pytest.approx(rep.continuous, rel=0.25)
        assert rep.difference == rep.discrete - rep.continuous

    def test_difference_shrinks_with_n(self, circle):
        meds = []
        for n in (1000, 4000):
            diffs = []
            for seed in range(5):
                cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed)
                eps = epsilon_schedule(n, 1)
                rep = energy_comparison_report(gamma_N_eps(cloud, eps), cloud,
                                               circle_cos_testfunction())
                diffs.append(abs(rep.difference))
            meds.append(np.median(diffs))
        assert meds[1] <= meds[0]

    def test_l2_report_constant(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 500, seed=2)
        f = TestFunction("one", lambda zi, ze: np.ones(len(np.atleast_2d(zi))),
                         grad_sq_rho2=0.0, sq_rho=1.0, sq_rho2=1.0 / (2 * math.pi))
        rep = l2_norm_comparison_report(gamma_N_eps(cloud, 0.2), cloud, f)
        assert rep.plain_discrete == pytest.approx(1.0, rel=1e-12)

    def test_l2_report_cosine(self, circle):
        n = 4000
        cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed=13)
        eps = epsilon_schedule(n, 1)
        rep = l2_norm_comparison_report(gamma_N_eps(cloud, eps), cloud,
                                        circle_cos_testfunction())
        # plain: CLT check, var(cos^2) = 1/8 under the uniform law
        stderr = math.sqrt(1.0 / 8.0 / n)
        assert abs(rep.plain_discrete - 0.5) < 4.0 * stderr
        assert rep.degree_continuous == pytest.approx(1.0 / (4.0 * math.pi))
        assert rep.degree_discrete == pytest.approx(rep.degree_continuous,
                                                    rel=0.15)


def test_theta_n_converges_to_theta_continuum(circle):
    # RMS of theta_n - theta over random query points shrinks with n
    rng = np.random.default_rng(17)
    queries = circle.uniform_intrinsic(40, rng)
    rms = []
    for n in (500, 2000):
        vals = []
        for seed in range(3):
            cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed)
            eps = 0.3
            ctx = KernelContext(cloud, eps)
            tn = np.array([theta_n_eps(ctx, x) for x in queries])
            tc = np.array([theta_eps(circle, DensitySpec("uniform"), x, eps=eps)
                           for x in queries])
            vals.append(math.sqrt(float(np.mean((tn - tc) ** 2))))
        rms.append(np.median(vals))
    assert rms[1] < rms[0]
