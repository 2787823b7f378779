import math

import numpy as np
import pytest

from spectral_limits.distortion import (
    delta_p_eps_a,
    s_eps,
    theorem_error_terms,
    v_p_eps,
)
from spectral_limits.geometry import Sphere, Spindle, bishop_gromov_ratio, \
    model_ball_volume


def torus_deficit(eps):
    # flat disk pi eps^2 against V_1(eps) = 2 pi (cosh eps - 1)
    return 1.0 - math.pi * eps**2 / (2.0 * math.pi * (math.cosh(eps) - 1.0))


class TestVpEps:
    def test_torus_closed_form(self, torus):
        est = v_p_eps(torus, p=4.0, eps=0.3, K=1.0, n_mc=2000, seed=0)
        want = torus_deficit(0.3)  # area one: V_{p,eps} = deficit itself
        assert est.value == pytest.approx(want, rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-15)

    def test_sphere_closed_form(self, sphere2):
        cap = 2.0 * math.pi * (1.0 - math.cos(0.5))
        vk = 2.0 * math.pi * (math.cosh(0.5) - 1.0)
        want = (1.0 - cap / vk) * (4.0 * math.pi) ** (1.0 / 2.0)
        est = v_p_eps(sphere2, p=2.0, eps=0.5, K=1.0, n_mc=1000, seed=1)
        assert est.value == pytest.approx(want, rel=1e-10)

    def test_vanishes_with_eps(self, sphere2):
        est = v_p_eps(sphere2, p=2.0, eps=1e-3, K=1.0, n_mc=200, seed=2)
        assert est.value < 1e-4

    def test_nondecreasing_in_K(self, sphere2):
        e1 = v_p_eps(sphere2, p=2.0, eps=0.4, K=1.0, n_mc=500, seed=3)
        e2 = v_p_eps(sphere2, p=2.0, eps=0.4, K=2.0, n_mc=500, seed=3)
        assert e1.value <= e2.value + 2.0 * (e1.stderr + e2.stderr)

    def test_spindle_monte_carlo_runs(self, spindle2):
        est = v_p_eps(spindle2, p=2.0, eps=0.5, K=1.0, n_mc=24, seed=4)
        assert est.value >= 0.0
        assert est.stderr > 0.0

    def test_one_sample_has_no_standard_error(self, torus):
        with pytest.raises(ValueError, match="n_mc"):
            v_p_eps(torus, p=4.0, eps=0.3, K=1.0, n_mc=1, seed=0)


class TestSpindleReference:
    # values of the per-pair scalar Clairaut solver, before the geodesic was
    # batched; both estimators see geodesics only through comparisons with
    # eps, so the batched kernel reproduces them exactly
    def test_v_p_eps(self):
        est = v_p_eps(Spindle(2), p=4, eps=0.25, K=1, n_mc=5, seed=0)
        assert est.value == pytest.approx(0.24770053285221824, rel=0.0, abs=1e-12)
        assert est.stderr == pytest.approx(0.03848028238986358, rel=0.0, abs=1e-12)

    def test_s_eps(self):
        est = s_eps(Spindle(2), eps=0.25,
                    n_mc_outer=50, n_mc_inner=2000, seed=0)
        assert est.value == pytest.approx(0.01816007209800442, rel=0.0, abs=1e-12)
        assert est.stderr == pytest.approx(0.00467931333765298, rel=0.0, abs=1e-12)


class TestSEps:
    def test_circle_exact_integral(self, circle):
        # chord < eps but arc >= eps happens iff arc in [eps, 2 asin(eps/2))
        exact = 2.0 * math.pi * 2.0 * (2.0 * math.asin(0.5) - 1.0)
        est = s_eps(circle, eps=1.0,
                    n_mc_outer=300, n_mc_inner=4000, seed=5)
        assert est.value == pytest.approx(exact, rel=0.08)
        assert abs(est.value - exact) < 4.0 * est.stderr + 0.01 * exact

    def test_cubic_scaling(self, circle):
        # arc - chord ~ arc^3 / 24: the discrepancy mass scales like eps^3
        e1 = s_eps(circle, eps=0.1,
                   n_mc_outer=500, n_mc_inner=80000, seed=6)
        e2 = s_eps(circle, eps=0.2,
                   n_mc_outer=500, n_mc_inner=80000, seed=7)
        exact = lambda e: 2 * math.pi * 2 * (2 * math.asin(e / 2) - e)
        assert e1.value == pytest.approx(exact(0.1), rel=0.2)
        assert e2.value == pytest.approx(exact(0.2), rel=0.2)
        assert e1.value / e2.value == pytest.approx(1.0 / 8.0, rel=0.25)

    def test_stderr_halves_with_four_times_samples(self, circle):
        a = s_eps(circle, eps=0.6,
                  n_mc_outer=200, n_mc_inner=2000, seed=8)
        b = s_eps(circle, eps=0.6,
                  n_mc_outer=800, n_mc_inner=2000, seed=8)
        assert b.stderr == pytest.approx(a.stderr / 2.0, rel=0.3)

    def test_one_outer_sample_has_no_standard_error(self, circle):
        with pytest.raises(ValueError, match="n_mc_outer"):
            s_eps(circle, eps=0.5, n_mc_outer=1, seed=0)


@pytest.mark.parametrize("eps", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("estimate", [
    lambda mfd, eps: v_p_eps(mfd, p=2.0, eps=eps, K=1.0, n_mc=10, seed=0),
    lambda mfd, eps: s_eps(mfd, eps=eps, n_mc_outer=4, n_mc_inner=10),
], ids=["v_p_eps", "s_eps"])
def test_estimators_reject_non_finite_eps(torus, estimate, eps):
    with pytest.raises(ValueError,
                       match=f"eps must be positive and finite, got {eps}"):
        estimate(torus, eps)


@pytest.mark.parametrize("call, match", [
    (lambda: v_p_eps(Sphere(2), p=math.nan, eps=0.3, K=1.0, n_mc=10, seed=0),
     "p must be >= 1"),
    (lambda: v_p_eps(Sphere(2), p=2.0, eps=0.3, K=math.nan, n_mc=10, seed=0),
     "K must be positive and finite, got nan"),
    (lambda: delta_p_eps_a(2, math.nan, 0.2, 0.0, 0.1, 0.1), "p must exceed 2"),
    (lambda: theorem_error_terms(2, math.nan, 0.1, 0.1),
     "eps must be positive and finite, got nan"),
    (lambda: theorem_error_terms(2, math.inf, 0.1, 0.1),
     "eps must be positive and finite, got inf"),
    (lambda: model_ball_volume(2, math.nan, 0.5),
     "K must be positive and finite, got nan"),
    (lambda: bishop_gromov_ratio(Sphere(2), np.array([1.0, 0.5]), 0.5, math.nan),
     "K must be positive and finite, got nan"),
], ids=["v_p_eps-p", "v_p_eps-K", "delta_p_eps_a-p", "error-terms-eps-nan",
        "error-terms-eps-inf", "model_ball_volume-K", "bishop_gromov_ratio-K"])
def test_nan_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_s_eps_needs_an_inner_sample(circle):
    with pytest.raises(ValueError, match="n_mc_inner must be an integer >= 1"):
        s_eps(circle, 0.3, n_mc_outer=5, n_mc_inner=0)


class TestErrorTerms:
    def test_shapes(self):
        t1, t2, t3 = theorem_error_terms(2, 0.2134, 0.0, 0.0)
        assert t1 == pytest.approx(0.2134**0.5, rel=1e-12)
        assert t2 == 0.0 and t3 == 0.0

    def test_t3(self):
        _, _, t3 = theorem_error_terms(1, 0.12753, 0.0, 0.001)
        assert t3 == pytest.approx(0.001 / 0.12753, rel=1e-12)

    def test_generic_values(self):
        t1, t2, t3 = theorem_error_terms(2, 0.25, 0.1, 0.01)
        assert t1 == pytest.approx(0.5)
        assert t2 == pytest.approx(0.1 * 0.25 ** (-0.5))
        assert t3 == pytest.approx(0.01 / 0.0625)


class TestDeltaQuantity:
    def test_min_exponent_m2_p4(self):
        assert delta_p_eps_a(2, 4.0, 0.25, 0.0, 0.0, 0.0) == pytest.approx(0.5)

    def test_unit_eps(self):
        assert delta_p_eps_a(3, 5.0, 1.0, 0.2, 0.3, 0.4) == pytest.approx(
            0.2 + 1.0 + 0.3 + 0.4
        )

    def test_exponent_m3_p4(self):
        # min(1 - 2/4, 3/2 - 2/4) = 1/2
        got = delta_p_eps_a(3, 4.0, 0.25, 0.0, 0.0, 0.0)
        assert got == pytest.approx(0.25**0.5)

    def test_p_guard(self):
        with pytest.raises(ValueError):
            delta_p_eps_a(2, 2.0, 0.3, 0.0, 0.0, 0.0)
