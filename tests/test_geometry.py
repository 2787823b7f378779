import math

import numpy as np
import pytest
from scipy import integrate, special
from scipy.optimize import brentq

from spectral_limits.geometry import (
    Circle,
    FlatTorus,
    Sphere,
    Spindle,
    _sample_sin_power,
    _sin_power_integral,
    _sn,
    ball_volume,
    bishop_gromov_ratio,
    mc_ball_volume,
    model_ball_volume,
    sphere_area,
    unit_ball_volume,
)


# -- scalar Clairaut solver, the reference for the batched spindle kernel ----


def _sweep(c, theta, a):
    # antiderivative of dphi/dtheta along a geodesic with Clairaut const a
    A = c * c - a * a
    if A <= 0.0:
        return 0.0
    w = a * (math.cos(theta) / math.sin(theta)) / math.sqrt(A)
    return -math.asin(min(1.0, max(-1.0, w))) / c


def _arclen(c, theta, a):
    # antiderivative of ds/dtheta along the same geodesic
    A = c * c - a * a
    ct = math.cos(theta) / math.sin(theta)
    rad = A - a * a * ct * ct
    if rad <= 0.0:
        return -math.copysign(math.pi / 2.0, ct)
    return -math.atan(c * ct / math.sqrt(rad))


def _rev_distance(c, t1, t2, dphi):
    # 2-D surface-of-revolution problem: fiber separation dphi in [0, pi];
    # one pair at a time, a 48-point scan per family and brentq per bracket
    tiny = 1e-12
    cands = [t1 + t2, 2.0 * math.pi - t1 - t2]  # paths through the tips
    if dphi <= tiny:
        cands.append(abs(t1 - t2))
        return min(cands)
    if min(math.sin(t1), math.sin(t2)) <= tiny:
        return min(cands)
    if abs(t1 - math.pi / 2.0) <= tiny and abs(t2 - math.pi / 2.0) <= tiny:
        cands.append(c * dphi)  # equatorial geodesic
    lo, hi = min(t1, t2), max(t1, t2)
    a_end = c * min(math.sin(t1), math.sin(t2))

    def sweep_mono(a):
        return _sweep(c, hi, a) - _sweep(c, lo, a)

    def sweep_down(a):
        return _sweep(c, t1, a) + _sweep(c, t2, a) + math.pi / c

    def sweep_up(a):
        return math.pi / c - _sweep(c, t1, a) - _sweep(c, t2, a)

    def len_mono(a):
        return _arclen(c, hi, a) - _arclen(c, lo, a)

    def len_down(a):
        return _arclen(c, t1, a) + _arclen(c, t2, a) + math.pi

    def len_up(a):
        return math.pi - _arclen(c, t1, a) - _arclen(c, t2, a)

    families = [(sweep_down, len_down), (sweep_up, len_up)]
    if hi - lo > tiny:
        families.append((sweep_mono, len_mono))
    grid = a_end * (1.0 - np.geomspace(1e-14, 1.0 - 1e-9, 48))[::-1]
    for sweep, length in families:
        vals = np.array([sweep(a) - dphi for a in grid])
        sign = np.sign(vals)
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            a_root = brentq(
                lambda a: sweep(a) - dphi, grid[i], grid[i + 1], xtol=1e-14
            )
            cands.append(length(a_root))
        for i in np.nonzero(vals == 0.0)[0]:
            cands.append(length(grid[i]))
    return min(cands)


def _scalar_geodesic(c, xi, yi):
    # Spindle.geodesic as it was, one pair at a time
    u = xi[1:] / np.linalg.norm(xi[1:])
    v = yi[1:] / np.linalg.norm(yi[1:])
    dphi = math.acos(min(1.0, max(-1.0, float(np.dot(u, v)))))
    return _rev_distance(c, float(xi[0]), float(yi[0]), dphi)


SPINDLE_SHAPES = [(2, 1.0 / math.sqrt(2.0)), (3, 1.0 / math.sqrt(2.0)),
                  (2, 1.0), (2, 0.3)]


class TestModelFunctions:
    def test_sn_at_zero(self):
        assert _sn(1.0, 0.0) == 0.0

    def test_sn_k1(self):
        assert _sn(1.0, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)

    def test_sn_k4(self):
        assert _sn(4.0, 0.5) == pytest.approx(math.sinh(1.0) / 2.0, rel=1e-15)

    def test_unit_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_model_ball_volume_zero(self):
        assert model_ball_volume(2, 1.0, 0.0) == 0.0

    def test_model_ball_volume_m2(self):
        # symbolic: vol(S^1) * int_0^r sinh = 2 pi (cosh r - 1)
        want = 2.0 * math.pi * (math.cosh(0.5) - 1.0)
        assert model_ball_volume(2, 1.0, 0.5) == pytest.approx(want, rel=1e-10)

    def test_model_ball_volume_m1(self):
        # vol(S^0) = 2 and the integrand is identically one
        assert model_ball_volume(1, 1.0, 0.3) == pytest.approx(0.6, rel=1e-12)

    def test_model_ball_volume_increasing(self):
        rs = np.linspace(0.05, 2.0, 25)
        vols = [model_ball_volume(2, 1.5, r) for r in rs]
        assert np.all(np.diff(vols) > 0)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_model_ball_volume_matches_tight_quadrature(self, m):
        # sinh^5(10 r) up to r = 3 is the steepest integrand of the grid
        for K in (1e-3, 0.1, 1.0, 10.0, 100.0):
            for r in (1e-6, 1e-3, 0.1, 1.0, 2.0, 3.0):
                val, _ = integrate.quad(lambda t: _sn(K, t) ** (m - 1),
                                        0.0, r, epsabs=0.0, epsrel=1e-13,
                                        limit=200)
                want = sphere_area(m - 1) * val
                assert model_ball_volume(m, K, r) == pytest.approx(
                    want, rel=1e-12, abs=0.0), (K, r)


class TestDistances:
    def test_circle_antipodal(self, circle):
        x, y = [0.0], [math.pi]
        assert circle.geodesic(x, y) == pytest.approx(math.pi)
        ex, ey = circle.embed(np.array([x, y]))
        assert np.linalg.norm(ex - ey) == pytest.approx(2.0)

    def test_sphere_pole_to_equator(self, sphere2):
        d = sphere2.geodesic([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
        assert d == pytest.approx(math.pi / 2.0)

    def test_torus_shift(self, torus):
        assert torus.geodesic([0.0, 0.0], [0.6, 0.0]) == pytest.approx(0.4)

    def test_self_distance(self, spindle2):
        z = spindle2.uniform_intrinsic(1, np.random.default_rng(0))[0]
        assert spindle2.geodesic(z, z) == pytest.approx(0.0, abs=1e-12)

    def test_spindle_profile_coordinate(self, spindle2):
        # first embedded coordinate at theta = pi/2 equals the profile
        # arclength integral, computed here by independent quadrature
        want, _ = integrate.quad(
            lambda p: math.sqrt(1.0 - 0.5 * math.cos(p) ** 2), 0.0, math.pi / 2
        )
        emb = spindle2.embed(np.array([[math.pi / 2.0, 1.0, 0.0]]))[0]
        assert emb[0] == pytest.approx(want, rel=1e-10)

    def test_point_embeds_consistently(self, spindle3):
        # a point embeds alone as it does within a batch
        z = spindle3.uniform_intrinsic(5, np.random.default_rng(1))
        batch = spindle3.embed(z)
        for zi, row in zip(z, batch):
            assert np.allclose(spindle3.embed(zi[None, :])[0], row, atol=1e-12)


@pytest.mark.parametrize("mkey", ["circle", "sphere2", "torus", "spindle2"])
class TestMetricProperties:
    def _model(self, request, mkey):
        return request.getfixturevalue(mkey)

    def test_triangle_inequality(self, request, mkey):
        mfd = self._model(request, mkey)
        n_triples = 1000
        rng = np.random.default_rng(42)
        z = mfd.uniform_intrinsic(3 * n_triples, rng)
        d = lambda a, b: mfd.geodesic(a, b)
        for t in range(n_triples):
            a, b, c = z[3 * t], z[3 * t + 1], z[3 * t + 2]
            assert d(a, c) <= d(a, b) + d(b, c) + 1e-9

    def test_symmetry(self, request, mkey):
        mfd = self._model(request, mkey)
        rng = np.random.default_rng(7)
        z = mfd.uniform_intrinsic(40, rng)
        for i in range(0, 40, 2):
            assert mfd.geodesic(z[i], z[i + 1]) == pytest.approx(
                mfd.geodesic(z[i + 1], z[i]), abs=1e-10
            )

    def test_embedding_sandwich(self, request, mkey):
        mfd = self._model(request, mkey)
        rng = np.random.default_rng(11)
        z = mfd.uniform_intrinsic(200, rng)
        emb = mfd.embed(z)
        for i in range(0, 200, 2):
            dg = mfd.geodesic(z[i], z[i + 1])
            de = float(np.linalg.norm(emb[i] - emb[i + 1]))
            assert de <= dg + 1e-9


class TestSpindleGeodesics:
    @pytest.mark.parametrize("m", [2, 3])
    def test_round_sphere_oracle(self, m):
        # at c = 1 the spindle is the unit round sphere: the spherical law
        # of cosines in (polar angle, fiber angle) is an exact oracle
        sp = Spindle(m=m, c=1.0)
        rng = np.random.default_rng(5)
        z = sp.uniform_intrinsic(200, rng)
        for i in range(0, 200, 2):
            t1, t2 = z[i][0], z[i + 1][0]
            u1 = z[i][1:] / np.linalg.norm(z[i][1:])
            u2 = z[i + 1][1:] / np.linalg.norm(z[i + 1][1:])
            dphi = math.acos(min(1.0, max(-1.0, float(np.dot(u1, u2)))))
            want = math.acos(min(1.0, max(-1.0,
                math.cos(t1) * math.cos(t2)
                + math.sin(t1) * math.sin(t2) * math.cos(dphi))))
            got = sp.geodesic(z[i], z[i + 1])
            assert got == pytest.approx(want, abs=1e-9)

    def test_meridian(self, spindle2):
        u = np.array([1.0, 0.0])
        assert spindle2.geodesic(np.r_[0.3, u], np.r_[1.2, u]) == pytest.approx(0.9)

    def test_near_tip_cone_limit(self, spindle2):
        # near a tip the spindle is a cone of total angle 2 pi c; unrolling
        # it maps geodesics to straight segments, so the chord at unrolled
        # angle c * dphi is the oracle (c * pi < pi, the apex is avoided)
        c = spindle2.c
        t1, t2 = 0.05, 0.07
        a = np.r_[t1, 1.0, 0.0]
        b = np.r_[t2, -1.0, 0.0]
        chord = math.sqrt(t1**2 + t2**2 - 2 * t1 * t2 * math.cos(c * math.pi))
        got = spindle2.geodesic(a, b)
        assert got == pytest.approx(chord, rel=2e-3)
        assert got <= t1 + t2

    def test_point_at_tip(self, spindle2):
        # the tip is a single point: distance from it is the polar angle
        tip = np.r_[0.0, 1.0, 0.0]
        other = np.r_[0.8, -1.0, 0.0]
        assert spindle2.geodesic(tip, other) == pytest.approx(0.8, abs=1e-9)

    def test_equator_arc(self, spindle2):
        c = spindle2.c
        a = np.r_[math.pi / 2, 1.0, 0.0]
        b = np.r_[math.pi / 2, math.cos(1.0), math.sin(1.0)]
        assert spindle2.geodesic(a, b) == pytest.approx(c * 1.0, abs=1e-9)


def _unrolled_sphere_distance(c, t1, t2, dphi):
    # the 2-D spindle is the unit sphere with a lune removed and its edges
    # glued: psi = c * phi maps it isometrically onto the round metric, so
    # the shorter of the great-circle arc at longitude gap c * dphi < pi and
    # the paths through the tips is the distance
    arc = np.arccos(np.clip(np.cos(t1) * np.cos(t2)
                            + np.sin(t1) * np.sin(t2) * np.cos(c * dphi), -1.0, 1.0))
    return np.minimum(arc, np.minimum(t1 + t2, 2.0 * math.pi - t1 - t2))


class TestBatchedClairaut:
    @pytest.mark.parametrize("m,c", SPINDLE_SHAPES)
    def test_matches_scalar_solver(self, m, c):
        # 2000 pairs span several kernel blocks; polar angles are uniform so
        # that the tips are well covered.  Near a turning point the
        # arclength is ill-conditioned in the Clairaut constant, and there
        # the scalar solver itself strays from the closed form (by up to
        # ~7e-9); the kernel may differ from it by that much more
        sp = Spindle(m=m, c=c)
        rng = np.random.default_rng(17)
        za, zb = sp.uniform_intrinsic(2000, rng), sp.uniform_intrinsic(2000, rng)
        za[:, 0], zb[:, 0] = rng.uniform(0.0, math.pi, size=(2, 2000))
        got = sp._pair_distances(za, zb)
        want = np.array([_scalar_geodesic(c, x, y) for x, y in zip(za, zb)])
        dphi = np.arccos(np.clip(np.sum(za[:, 1:] * zb[:, 1:], axis=1), -1.0, 1.0))
        slack = np.abs(want - _unrolled_sphere_distance(c, za[:, 0], zb[:, 0], dphi))
        assert np.all(np.abs(got - want) <= 1e-9 + slack)
        assert np.mean(np.abs(got - want) <= 1e-9) > 0.999

    @pytest.mark.parametrize("c", [1.0 / math.sqrt(2.0), 0.3, 0.9, 1.0])
    def test_matches_unrolled_sphere(self, c):
        t1, t2, dphi = np.random.default_rng(3).uniform(0.0, math.pi, size=(3, 2000))
        got = Spindle(2, c=c)._rev_distance_many(t1, t2, dphi)
        want = _unrolled_sphere_distance(c, t1, t2, dphi)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8)

    @pytest.mark.xfail(strict=True, reason="documents the oracle's blind "
                       "spot: its Clairaut scan stops at a = a_end * (1 - 1e-14), "
                       "so a root beyond it is missed")
    def test_root_beyond_the_scan_grid(self):
        # the monotone geodesic turns within 4e-15 * a_end of the lower
        # point; the scalar oracle falls back to the path through a tip (2.95)
        c, pair = 0.3, (1.475125358068018, 1.4764949261958262, 0.5663878314580219)
        want = _unrolled_sphere_distance(c, *pair)
        assert _rev_distance(c, *pair) == pytest.approx(want, abs=1e-8)

    def test_root_beyond_the_scan_grid_production(self):
        # the pair the scalar oracle gets wrong (2.95): the closed form has
        # no scan to miss it
        c, (t1, t2, dphi) = 0.3, (1.475125358068018, 1.4764949261958262,
                                  0.5663878314580219)
        x = np.r_[t1, 1.0, 0.0]
        y = np.r_[t2, math.cos(dphi), math.sin(dphi)]
        got = Spindle(2, c=c).geodesic(x, y)
        assert got == pytest.approx(_unrolled_sphere_distance(c, t1, t2, dphi),
                                    rel=0.0, abs=1e-12)
        assert got == pytest.approx(0.1691541, abs=1e-7)

    @pytest.mark.parametrize("m", [2, 3])
    def test_short_arcs(self, m):
        # pairs 1e-7 apart in theta and in the fiber angle: the distance is
        # the length of the displacement in the metric to first order
        sp, delta = Spindle(m=m), 1e-7
        rng = np.random.default_rng(11)
        for theta, phi in rng.uniform((0.2, 0.0), (math.pi - 0.2, 2.0 * math.pi),
                                      size=(50, 2)):
            u, v = np.zeros(m), np.zeros(m)
            u[:2] = math.cos(phi), math.sin(phi)
            v[:2] = math.cos(phi + delta), math.sin(phi + delta)
            got = sp.geodesic(np.r_[theta, u], np.r_[theta + delta, v])
            want = delta * math.hypot(1.0, sp.c * math.sin(theta))
            assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("t1,t2,dphi", [
        (0.3, 1.2, 0.0),                   # meridian
        (2.9, 0.4, 0.0),
        (0.0, 0.8, 2.0),                   # at a tip
        (math.pi, 0.8, 2.0),
        (0.0, math.pi, 1.0),               # tip to tip
        (math.pi / 2, math.pi / 2, 1.0),   # both on the equator
        (math.pi / 2, math.pi / 2, math.pi),
        (1.1, 1.1, 0.7),                   # equal heights: no monotone family
        (2.5, 2.5, math.pi),
        (0.05, 0.07, math.pi),             # near a tip, across it
    ])
    @pytest.mark.parametrize("c", [1.0 / math.sqrt(2.0), 0.3])
    def test_edge_cases(self, t1, t2, dphi, c):
        got = Spindle(2, c=c)._rev_distance_many([t1], [t2], [dphi])
        assert got.shape == (1,)
        assert got[0] == pytest.approx(_rev_distance(c, t1, t2, dphi), abs=1e-9)

    def test_empty_batch(self, spindle2):
        empty = np.empty(0)
        assert spindle2._rev_distance_many(empty, empty, empty).shape == (0,)
        z = spindle2.uniform_intrinsic(1, np.random.default_rng(0))[0]
        assert spindle2.geodesic_to_many(z, np.empty((0, 3))).shape == (0,)

    def test_geodesic_to_many_matches_geodesic(self, spindle3):
        z = spindle3.uniform_intrinsic(300, np.random.default_rng(8))
        many = spindle3.geodesic_to_many(z[0], z)
        ones = [spindle3.geodesic(z[0], y) for y in z]
        np.testing.assert_allclose(many, ones, rtol=0.0, atol=1e-9)


class TestBallVolumes:
    def test_sphere_cap(self, sphere2):
        x = np.array([0.0, 0.0, 1.0])
        want = 2.0 * math.pi * (1.0 - math.cos(0.5))
        assert ball_volume(sphere2, x, 0.5) == pytest.approx(want, rel=1e-12)

    def test_zero_radius(self, sphere2):
        x = np.array([0.0, 0.0, 1.0])
        assert ball_volume(sphere2, x, 0.0) == 0.0

    def test_torus_flat_disk(self, torus):
        x = np.array([0.2, 0.7])
        assert ball_volume(torus, x, 0.3) == pytest.approx(math.pi * 0.09, rel=1e-12)

    def test_circle_ball(self, circle):
        x = np.array([1.0])
        assert ball_volume(circle, x, 0.4) == pytest.approx(0.8)
        assert ball_volume(circle, x, 10.0) == pytest.approx(2.0 * math.pi)

    def test_spindle_mc_matches_sphere(self):
        sp = Spindle(2, c=1.0)
        x = np.array([math.pi / 2.0, 1.0, 0.0])
        val, stderr = mc_ball_volume(sp, x, 0.8, n_mc=4000,
                                     rng=np.random.default_rng(3))
        want = 2.0 * math.pi * (1.0 - math.cos(0.8))
        assert abs(val - want) < 4.0 * stderr + 1e-12
        assert stderr > 0

    def test_higher_sphere_quadrature(self):
        s3 = Sphere(3, 1.0)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        want, _ = integrate.quad(lambda t: math.sin(t) ** 2, 0.0, 0.7)
        want *= sphere_area(2)
        assert ball_volume(s3, x, 0.7) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("R", [1.0, 2.5])
    def test_tiny_sphere_cap_is_exact(self, R):
        # 2 pi R^2 (1 - cos t) loses digits to cancellation as t -> 0
        x = np.array([0.0, 0.0, 1.0])
        r = 1e-6
        want = 4.0 * math.pi * R**2 * math.sin(r / (2.0 * R)) ** 2
        assert ball_volume(Sphere(2, R), x, r) == pytest.approx(want, rel=1e-15,
                                                             abs=0.0)


@pytest.mark.parametrize("r", [math.nan, math.inf, -0.5],
                         ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("volume", [
    lambda r: model_ball_volume(2, 1.0, r),
    lambda r: ball_volume(Sphere(2), np.array([0.0, 0.0, 1.0]), r),
], ids=["model", "sphere"])
def test_ball_volumes_reject_bad_radius(volume, r):
    with pytest.raises(ValueError,
                       match=f"r must be nonnegative and finite, got {r}"):
        volume(r)


class TestSinPower:
    @pytest.mark.parametrize("p", range(7))
    def test_integral_matches_quadrature(self, p):
        for t in (1e-3, 0.7, 2.0, math.pi):
            want, _ = integrate.quad(lambda s: math.sin(s) ** p, 0.0, t,
                                     epsabs=0.0, epsrel=1e-13)
            assert _sin_power_integral(p, t) == pytest.approx(want, rel=1e-13,
                                                              abs=0.0)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_sampler_is_the_exact_inverse_cdf(self, p):
        # the sampler's own uniform draws, replayed from the same seed
        u = np.random.default_rng(5).uniform(0.0, 1.0, size=20000)
        th = _sample_sin_power(p, len(u), np.random.default_rng(5))
        a = (p + 1) / 2.0
        cdf = special.betainc(a, a, np.sin(th / 2.0) ** 2)
        assert np.max(np.abs(cdf - u)) <= 1e-12

    def test_p1_draws_are_arccos(self):
        u = np.random.default_rng(6).uniform(0.0, 1.0, size=20000)
        th = _sample_sin_power(1, len(u), np.random.default_rng(6))
        np.testing.assert_array_equal(th, np.arccos(1.0 - 2.0 * u))


class TestBishopGromov:
    def test_sphere_value(self, sphere2):
        x = np.array([0.0, 0.0, 1.0])
        cap = 2.0 * math.pi * (1.0 - math.cos(0.5))
        vk = 2.0 * math.pi * (math.cosh(0.5) - 1.0)
        assert bishop_gromov_ratio(sphere2, x, 0.5, 1.0) == pytest.approx(
            cap / vk, rel=1e-10
        )

    def test_small_radius_limit(self, sphere2):
        x = np.array([0.0, 0.0, 1.0])
        assert bishop_gromov_ratio(sphere2, x, 1e-4, 1.0) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_circle_identically_one(self, circle):
        x = np.array([0.4])
        assert bishop_gromov_ratio(circle, x, 0.1, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("mkey", ["sphere2", "torus"])
    def test_monotone_in_radius(self, request, mkey):
        mfd = request.getfixturevalue(mkey)
        x = mfd.uniform_intrinsic(1, np.random.default_rng(0))[0]
        rs = np.linspace(0.05, 1.2, 30)
        ratios = [bishop_gromov_ratio(mfd, x, r, 1.0) for r in rs]
        assert np.all(np.diff(ratios) <= 1e-8)


def test_total_volumes():
    assert Circle(2.0).total_volume == pytest.approx(4.0 * math.pi)
    assert Sphere(2, 2.0).total_volume == pytest.approx(16.0 * math.pi)
    assert FlatTorus((1.0, 2.0)).total_volume == pytest.approx(2.0)
    assert Spindle(2).total_volume == pytest.approx(2.0 * math.sqrt(2.0) * math.pi)
    assert Spindle(3).total_volume == pytest.approx(math.pi**2)


@pytest.mark.parametrize("build, match", [
    (lambda: Sphere(1.5), "m must be an integer >= 1, got 1.5"),
    (lambda: Sphere(math.nan), "m must be an integer >= 1, got nan"),
    (lambda: Spindle(2.5), "m must be an integer >= 2, got 2.5"),
    (lambda: Circle(math.nan), "radius must be positive and finite"),
    (lambda: Circle(-1.0), "radius must be positive and finite"),
    (lambda: Sphere(2, math.inf), "radius must be positive and finite"),
    (lambda: FlatTorus((1.0, math.nan)), "periods must be positive and finite"),
    (lambda: FlatTorus((1.0, math.inf)), "periods must be positive and finite"),
    (lambda: FlatTorus(()), r"len\(periods\) must be an integer >= 1, got 0"),
], ids=["sphere-m-1.5", "sphere-m-nan", "spindle-m-2.5", "circle-nan",
        "circle-negative", "sphere-radius-inf", "torus-nan", "torus-inf",
        "torus-empty"])
def test_constructors_reject_what_a_config_rejects(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_whole_float_dimension_is_the_int():
    assert Sphere(2.0).m == 2 and type(Sphere(2.0).m) is int
    assert Spindle(2.0).total_volume == Spindle(2).total_volume
