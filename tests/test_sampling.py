import math

import numpy as np
import pytest
from scipy import stats

from spectral_limits.geometry import Circle, Sphere, Spindle
from spectral_limits.sampling import (
    DensitySpec,
    bernstein_bound,
    bernstein_empirical_check,
    derive_seeds,
    epsilon_schedule,
    sample_dataset,
)
from spectral_limits.interpolation import theta_eps


class TestDeterminism:
    def test_identical_seeds_bitwise(self, circle):
        a = sample_dataset(circle, DensitySpec("uniform"), 64, seed=99)
        b = sample_dataset(circle, DensitySpec("uniform"), 64, seed=99)
        assert a.to_csv() == b.to_csv()

    def test_different_seeds_differ(self, circle):
        a = sample_dataset(circle, DensitySpec("uniform"), 64, seed=1)
        b = sample_dataset(circle, DensitySpec("uniform"), 64, seed=2)
        assert a.to_csv() != b.to_csv()

    def test_csv_header(self, circle):
        cloud = sample_dataset(circle, DensitySpec("uniform"), 16, seed=5)
        header = cloud.to_csv().splitlines()[0]
        assert header == "# manifold=circle n=16 seed=5 d=2"

    def test_derive_seeds(self):
        a = derive_seeds(7, 5)
        assert a == derive_seeds(7, 5)
        assert len(set(a)) == 5

    def test_n_too_small(self, circle):
        with pytest.raises(ValueError):
            sample_dataset(circle, DensitySpec("uniform"), 1, seed=0)


class TestMarginals:
    def test_circle_uniform_ks(self, circle):
        # pool many tiny clouds (n = 4) and test the angle law
        angles = []
        for seed in derive_seeds(7, 2500):
            angles.append(sample_dataset(circle, DensitySpec("uniform"), 4,
                                         seed).intrinsic[:, 0])
        pooled = np.concatenate(angles) / (2.0 * math.pi)
        assert stats.kstest(pooled, "uniform").pvalue > 0.01

    def test_sphere_on_manifold(self):
        s = Sphere(2, 1.7)
        cloud = sample_dataset(s, DensitySpec("uniform"), 2, seed=123)
        for row in cloud.embedded:
            assert np.linalg.norm(row) == pytest.approx(1.7, abs=1e-12)

    def test_spindle_theta_marginal(self, spindle2):
        # theta marginal has density sin(theta)/2 for m = 2
        cloud = sample_dataset(spindle2, DensitySpec("uniform"), 20000, seed=4)
        th = cloud.intrinsic[:, 0]
        edges = np.linspace(0.0, math.pi, 13)
        observed, _ = np.histogram(th, bins=edges)
        probs = (np.cos(edges[:-1]) - np.cos(edges[1:])) / 2.0
        chi2 = stats.chisquare(observed, probs * len(th))
        assert chi2.pvalue > 0.01

    def test_cosine_tilt_law(self, circle):
        a0 = 0.3
        cloud = sample_dataset(circle, DensitySpec("cosine_tilt", amplitude=a0),
                               30000, seed=8)
        th = np.sort(cloud.intrinsic[:, 0])
        cdf = lambda t: (t + a0 * np.sin(t)) / (2.0 * math.pi)
        assert stats.kstest(th, cdf).pvalue > 0.01


def circle_pdf_integral(circle, spec):
    """Trapezoid integral of the pdf over the circle's arclength."""
    th = np.linspace(0.0, 2.0 * math.pi, 20001)
    vals = spec.pdf(circle, th[:, None])
    return np.trapezoid(vals, th) * circle.radius


class TestDensityValidation:
    def test_uniform_valid(self, circle):
        total = circle_pdf_integral(circle, DensitySpec("uniform"))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_cosine_tilt_valid(self, circle):
        spec = DensitySpec("cosine_tilt", amplitude=0.2)
        assert circle_pdf_integral(circle, spec) == pytest.approx(1.0, abs=1e-6)

    def test_amplitude_cap(self):
        with pytest.raises(ValueError):
            DensitySpec("cosine_tilt", amplitude=0.7)

    @pytest.mark.parametrize("use,match", [
        (lambda spec, s: spec.pdf(s, np.zeros((3, 2))),
         "only available on the circle"),
        (lambda spec, s: spec.sample(s, 3, np.random.default_rng(0)),
         "only available on the circle"),
        (lambda spec, s: sample_dataset(s, spec, 3, seed=0),
         "only available on the circle"),
        (lambda spec, s: theta_eps(s, spec, np.zeros(2), eps=0.3),
         "only the uniform density is supported off the circle"),
    ], ids=["pdf", "sample", "sample_dataset", "theta_eps"])
    def test_tilt_off_the_circle(self, sphere2, use, match):
        spec = DensitySpec("cosine_tilt", amplitude=0.2)
        with pytest.raises(ValueError, match=match):
            use(spec, sphere2)


class TestEpsilonSchedule:
    def test_m2(self):
        assert epsilon_schedule(4000, 2) == pytest.approx(
            (math.log(4000) / 4000) ** 0.25, rel=1e-15
        )

    def test_m1(self):
        assert epsilon_schedule(4000, 1) == pytest.approx(
            (math.log(4000) / 4000) ** (1.0 / 3.0), rel=1e-15
        )

    def test_small_n(self):
        assert epsilon_schedule(3, 1) == pytest.approx(
            (math.log(3) / 3.0) ** (1.0 / 3.0), rel=1e-15
        )
        with pytest.raises(ValueError):
            epsilon_schedule(2, 1)


class TestBernstein:
    def test_bound_values(self):
        dev, fail = bernstein_bound(1.0, 0.5, 1000, 0.1)
        assert dev == pytest.approx(2 * 1 * 0.01 + 4 * 0.5 * 0.1)
        assert fail == pytest.approx(2.0 * math.exp(-10.0))

    def test_degenerate_delta(self):
        dev, fail = bernstein_bound(1.0, 0.0, 50, 0.0)
        assert dev == 0.0
        assert fail == 2.0

    def test_bound_values_2(self):
        dev, fail = bernstein_bound(2.0, 1.0, 100, 0.2)
        assert dev == pytest.approx(0.96)
        assert fail == pytest.approx(2.0 * math.exp(-4.0))

    @pytest.mark.parametrize("args, name", [
        ((math.nan, 0.5, 100, 0.1), "sup_norm"),
        ((1.0, math.nan, 100, 0.1), "sigma"),
        ((1.0, 0.5, math.nan, 0.1), "n"), ((1.0, 0.5, 100, math.nan), "delta"),
        ((-1.0, 0.5, 100, 0.1), "sup_norm"), ((1.0, 0.5, 0, 0.1), "n"),
    ], ids=["sup-nan", "sigma-nan", "n-nan", "delta-nan", "sup-negative",
            "n-zero"])
    def test_bad_arguments_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            bernstein_bound(*args)

    def test_constant_function_never_violates(self, circle):
        f = lambda zi, ze: np.full(len(np.atleast_2d(zi)), 3.0)
        rate = bernstein_empirical_check(circle, DensitySpec("uniform"), f,
                                         n=50, delta=0.05, trials=100, seed=0)
        assert rate == 0.0

    def test_large_delta_zero_rate(self, circle):
        f = lambda zi, ze: np.cos(np.atleast_2d(zi)[:, 0])
        rate = bernstein_empirical_check(circle, DensitySpec("uniform"), f,
                                         n=100, delta=1.0, trials=100, seed=1)
        assert rate == 0.0

    def test_trials_floor(self, circle, sphere2):
        f = lambda zi, ze: np.cos(np.atleast_2d(zi)[:, 0])
        with pytest.raises(ValueError, match="trials must be an integer >= 100"):
            bernstein_empirical_check(circle, DensitySpec("uniform"), f,
                                      n=100, delta=0.1, trials=10, seed=1)
        # the true mean is a quadrature on the circle; any other model is
        # rejected before its first trial
        with pytest.raises(ValueError, match="needs the circle, not 'sphere'"):
            bernstein_empirical_check(sphere2, DensitySpec("uniform"), f,
                                      n=100, delta=0.1, trials=100, seed=1)
