"""Reference spectra against closed forms, oracles and frozen fixtures.

The two fixtures under ``tests/fixtures`` are frozen once from the
finite-difference oracles of ``fd_oracles.py`` and must be reproduced by
the exact builders; a missing one fails its test.  To freeze the missing
ones, run ``PYTHONPATH=src python tests/test_reference.py``.
"""

import math
import os

import numpy as np
import pytest
from scipy.special import roots_gegenbauer

from fd_oracles import spindle_fd, weighted_circle_fd
from spectral_limits.geometry import Circle, sphere_area
from spectral_limits.reference import (
    appendix_ratio_check,
    circle_spectrum,
    sphere_harmonic_multiplicity,
    sphere_spectrum,
    spindle_spectrum,
    torus_spectrum,
    weighted_circle_spectrum,
)
from spectral_limits.sampling import DensitySpec

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

TILT = DensitySpec("cosine_tilt", amplitude=0.2)
C = 1.0 / math.sqrt(2.0)

# fixture file: (mesh, oracle call)
FIXTURES = {
    "weighted_circle_tilt02.csv": (4096, lambda: weighted_circle_fd(
        1.0, TILT, 4, mesh=4096)),
    "spindle_m3_c0707.csv": (2048, lambda: spindle_fd(
        3, C, l_max=6, k_max=6, mesh=2048)),
}


def save_fixture(eigenvalues, labels, path, mesh):
    """Write an oracle spectrum's ``l,j,lambda`` rows."""
    with open(path, "w") as fh:
        fh.write(f"# provenance=sturm_liouville mesh={mesh} tolerance=1e-06\n")
        fh.write("l,j,lambda\n")
        for (l, j), lam in zip(labels, eigenvalues):
            fh.write(f"{l},{j},{lam:.17g}\n")


def load_fixture(path) -> np.ndarray:
    """Eigenvalues of a frozen fixture file, ascending."""
    lams = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("l,"):
                continue
            lams.append(float(line.split(",")[2]))
    return np.asarray(lams)


def check_fixture(spectrum, name, tol=1e-6):
    """The spectrum must reproduce the frozen fixture ``name``."""
    path = os.path.join(FIXTURE_DIR, name)
    if not os.path.exists(path):
        pytest.fail(f"fixture {path} is missing; freeze it with "
                    "`PYTHONPATH=src python tests/test_reference.py`")
    frozen = load_fixture(path)
    assert np.max(np.abs(frozen - spectrum.eigenvalues)) < tol
    return frozen


def test_missing_fixture_fails(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "FIXTURE_DIR", str(tmp_path))
    with pytest.raises(pytest.fail.Exception,
                       match="PYTHONPATH=src python tests/test_reference.py"):
        check_fixture(circle_spectrum(1.0, 2), "absent.csv")
    assert os.listdir(tmp_path) == []


class TestCircle:
    def test_eigenvalues(self):
        spec = circle_spectrum(1.0, 6)
        assert np.allclose(spec.eigenvalues, [0, 1, 1, 4, 4, 9, 9])

    def test_radius_scaling(self):
        assert circle_spectrum(2.0, 2).eigenvalues[1] == pytest.approx(0.25)

    def test_ground_state(self):
        spec = circle_spectrum(1.0, 3)
        assert spec.eigenvalues[0] == 0.0
        z = np.linspace(0, 2 * math.pi, 7)[:, None]
        assert np.allclose(spec.eigenfunctions[0](z, None), 1.0)

    def test_cluster_structure(self):
        spec = circle_spectrum(1.0, 6)
        assert spec.clusters() == [(0, 0), (1, 2), (3, 4), (5, 6)]

    def test_orthonormal_in_stated_weight(self):
        spec = circle_spectrum(1.0, 4)
        th = np.linspace(0, 2 * math.pi, 20000, endpoint=False)[:, None]
        f = np.column_stack([spec.eigenfunctions[k](th, None) for k in range(5)])
        gram = f.T @ f / len(th)  # uniform rho vol quadrature
        assert np.max(np.abs(gram - np.eye(5))) < 1e-8

    def test_weight_conversion(self):
        spec = circle_spectrum(1.0, 2)
        th = np.array([[0.3]])
        f_rho = spec.evaluator(1, "rho_vol")(th, None)
        f_rho2 = spec.evaluator(1, "rho2_vol")(th, None)
        assert f_rho2 == pytest.approx(f_rho * math.sqrt(2.0 * math.pi))


class TestSphere:
    def test_eigenvalues(self):
        spec = sphere_spectrum(2, 1.0, 8)
        assert np.allclose(spec.eigenvalues, [0, 2, 2, 2, 6, 6, 6, 6, 6])

    def test_multiplicities(self):
        assert sphere_harmonic_multiplicity(1, 2) == 3
        assert sphere_harmonic_multiplicity(2, 2) == 5
        assert sphere_harmonic_multiplicity(1, 3) == 4

    def test_l1_are_coordinates(self):
        spec = sphere_spectrum(2, 1.0, 3)
        rng = np.random.default_rng(0)
        u = rng.standard_normal((50, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        for j in range(3):
            vals = spec.eigenfunctions[1 + j](u, u)
            assert np.allclose(vals, math.sqrt(3.0) * u[:, j])

    def test_s2_higher_harmonics_orthonormal(self):
        spec = sphere_spectrum(2, 1.0, 8)
        x, w = np.polynomial.legendre.leggauss(64)
        ph = np.linspace(0, 2 * math.pi, 128, endpoint=False)
        T, P = np.meshgrid(np.arccos(x), ph, indexing="ij")
        u = np.column_stack([
            (np.sin(T) * np.cos(P)).ravel(),
            (np.sin(T) * np.sin(P)).ravel(),
            np.cos(T).ravel(),
        ])
        f = np.column_stack([spec.eigenfunctions[k](u, u) for k in range(9)])
        wgrid = np.repeat(w, 128) / (2.0 * 128)
        gram = (f * wgrid[:, None]).T @ f
        assert np.max(np.abs(gram - np.eye(9))) < 1e-8

    def test_radius_scaling(self):
        spec = sphere_spectrum(2, 2.0, 3)
        assert spec.eigenvalues[1] == pytest.approx(0.5)


class TestTorus:
    def test_unit_periods(self):
        spec = torus_spectrum((1.0, 1.0), 8)
        w = 4.0 * math.pi**2
        assert np.allclose(spec.eigenvalues, [0, w, w, w, w, 2 * w, 2 * w,
                                              2 * w, 2 * w])

    def test_functions_orthonormal(self):
        spec = torus_spectrum((1.0, 1.0), 6)
        grid = np.stack(np.meshgrid(np.linspace(0, 1, 64, endpoint=False),
                                    np.linspace(0, 1, 64, endpoint=False),
                                    indexing="ij"), axis=-1).reshape(-1, 2)
        f = np.column_stack([spec.eigenfunctions[k](grid, None)
                             for k in range(7)])
        gram = f.T @ f / len(grid)
        assert np.max(np.abs(gram - np.eye(7))) < 1e-10

    @pytest.mark.parametrize("period", [math.nan, math.inf, 0.0])
    def test_rejects_the_periods_a_torus_rejects(self, period):
        with pytest.raises(ValueError, match="periods must be positive and finite"):
            torus_spectrum((1.0, period), 4)


# (R, a): radius and cosine-tilt amplitude; a = 0 is the uniform density
CIRCLE_CASES = [(1.0, 0.2), (1.0, 0.5), (2.0, 0.35), (1.0, 0.0)]


class TestWeightedCircle:
    def test_uniform_matches_closed_form(self):
        spec = weighted_circle_spectrum(1.0, DensitySpec("uniform"), 6)
        want = circle_spectrum(1.0, 6).eigenvalues
        assert np.max(np.abs(spec.eigenvalues - want)) < 1e-12

    def test_tilt_fixture(self):
        spec = weighted_circle_spectrum(1.0, TILT, 4)
        check_fixture(spec, "weighted_circle_tilt02.csv")
        assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("radius, a", CIRCLE_CASES)
    def test_ground_eigenvalue_is_zero(self, radius, a):
        dens = DensitySpec("cosine_tilt", amplitude=a)
        assert weighted_circle_spectrum(radius, dens, 4).eigenvalues[0] == 0.0

    def test_ground_state_constant(self):
        spec = weighted_circle_spectrum(1.0, TILT, 2)
        th = np.linspace(0, 2 * math.pi, 300)[:, None]
        vals = spec.eigenfunctions[0](th, None)
        assert np.std(vals) / np.mean(np.abs(vals)) < 1e-6

    def test_fd_vectors_orthonormal_in_rho2(self):
        spec = weighted_circle_spectrum(1.0, TILT, 4)
        th = np.linspace(0, 2 * math.pi, 8192, endpoint=False)[:, None]
        f = np.column_stack([spec.eigenfunctions[k](th, None)
                             for k in range(5)])
        w = TILT.pdf(Circle(1.0), th) ** 2 * (2 * math.pi / 8192)
        gram = (f * w[:, None]).T @ f
        assert np.max(np.abs(gram - np.eye(5))) < 1e-3

    @pytest.mark.parametrize("radius, a", CIRCLE_CASES)
    def test_evaluators_orthonormal_to_rounding(self, radius, a):
        # the periodic trapezoid rule on 400 points integrates the squared
        # trigonometric sums, of degree <= 2 * 48 + 2, exactly
        dens = DensitySpec("cosine_tilt", amplitude=a)
        spec = weighted_circle_spectrum(radius, dens, 8)
        th = np.linspace(0, 2 * math.pi, 400, endpoint=False)[:, None]
        f = np.column_stack([spec.eigenfunctions[k](th, None)
                             for k in range(9)])
        w = dens.pdf(Circle(radius), th) ** 2 * (2 * math.pi * radius / 400)
        gram = (f * w[:, None]).T @ f
        assert np.max(np.abs(gram - np.eye(9))) < 1e-12

    @pytest.mark.parametrize("radius, a", CIRCLE_CASES)
    def test_fd_oracle_agrees(self, radius, a):
        dens = DensitySpec("cosine_tilt", amplitude=a)
        spec = weighted_circle_spectrum(radius, dens, 8)
        lams, _ = weighted_circle_fd(radius, dens, 8, mesh=4096)
        assert np.max(np.abs(spec.eigenvalues - lams)) < 1e-8


# (m, c): dimension and warp constant
SPINDLE_CASES = [(2, 0.7), (2, C), (3, C), (4, 0.8)]


class TestSpindle:
    def test_c1_reduces_to_sphere(self):
        spec = spindle_spectrum(2, 1.0, l_max=4, k_max=8)
        want = sphere_spectrum(2, 1.0, 8).eigenvalues
        assert np.max(np.abs(spec.eigenvalues - want)) < 1e-4

    @pytest.mark.parametrize("m", [2, 3])
    def test_c1_is_the_sphere_bit_for_bit(self, m):
        spec = spindle_spectrum(m, 1.0, l_max=12, k_max=12)
        want = sphere_spectrum(m, 1.0, 12).eigenvalues
        assert spec.eigenvalues.tobytes() == want.tobytes()

    def test_ground_state(self):
        spec = spindle_spectrum(2, C, l_max=3, k_max=3)
        assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("m, c", SPINDLE_CASES)
    def test_ground_eigenvalue_is_zero(self, m, c):
        assert spindle_spectrum(m, c, l_max=6, k_max=4).eigenvalues[0] == 0.0

    def test_m3_fixture(self, spindle3):
        spec = spindle_spectrum(3, C, l_max=6, k_max=6)
        check_fixture(spec, "spindle_m3_c0707.csv")
        # the radial branch is curvature-only: lambda_1 = 3 exactly on the
        # topological S^3 radial problem, independent of the warp constant
        assert spec.eigenvalues[1] == pytest.approx(3.0, abs=2e-5)
        assert spec.labels[1] == (0, 1)

    def test_m2_first_nonzero(self):
        spec = spindle_spectrum(2, C, l_max=4, k_max=2)
        assert spec.eigenvalues[1] == pytest.approx(2.0, abs=1e-5)

    def test_radial_functions_orthonormal(self):
        spec = spindle_spectrum(3, C, l_max=4, k_max=6)
        radial = [k for k, lab in enumerate(spec.labels) if lab[0] == 0]
        mfd = spec.manifold
        th = np.linspace(1e-4, math.pi - 1e-4, 20000)
        z = np.column_stack([th, np.ones_like(th), np.zeros_like(th),
                             np.zeros_like(th)])
        jac = np.sin(th) ** 2
        w = (spec.uniform_rho**2 * sphere_area(2) * mfd.c**2
             * (th[1] - th[0])) * jac
        f = np.column_stack([spec.eigenfunctions[k](z, None) for k in radial])
        gram = (f * w[:, None]).T @ f
        assert np.max(np.abs(gram - np.eye(len(radial)))) < 1e-3

    @pytest.mark.parametrize("m, c", SPINDLE_CASES)
    def test_radial_evaluators_orthonormal_to_rounding(self, m, c):
        # Gauss-Gegenbauer nodes in x = cos(theta) with weight
        # (1 - x^2)^(alpha - 1/2) = sin^(m-2)(theta) integrate the squared
        # polynomials exactly; sin(theta) d theta = dx carries the rest
        spec = spindle_spectrum(m, c, l_max=12, k_max=24)
        radial = [k for k, lab in enumerate(spec.labels) if lab[0] == 0]
        x, w = roots_gegenbauer(32, (m - 1) / 2.0)
        z = np.column_stack([np.arccos(x), np.ones((32, m))])
        f = np.column_stack([spec.eigenfunctions[k](z, None) for k in radial])
        w = w * spec.uniform_rho**2 * sphere_area(m - 1) * c ** (m - 1)
        gram = (f * w[:, None]).T @ f
        assert len(radial) >= 4
        assert np.max(np.abs(gram - np.eye(len(radial)))) < 1e-12

    @pytest.mark.parametrize("m, c", SPINDLE_CASES)
    def test_fd_oracle_agrees(self, m, c):
        spec = spindle_spectrum(m, c, l_max=6, k_max=12)
        lams, _ = spindle_fd(m, c, l_max=6, k_max=12, mesh=2048)
        assert np.max(np.abs(spec.eigenvalues - lams)) < 1e-8

    def test_tail_guard(self):
        with pytest.raises(ValueError, match="l_max"):
            spindle_spectrum(3, C, l_max=0, k_max=6)

    @pytest.mark.parametrize("m, c, match", [
        (1, 0.7, r"m must be an integer >= 2, got 1"),
        (2.5, 0.7, r"m must be an integer >= 2, got 2.5"),
        (2, 1.5, r"warp constant c must lie in \(0, 1\]"),
    ], ids=["m-1", "m-2.5", "c-1.5"])
    def test_rejects_what_the_spindle_rejects(self, m, c, match):
        with pytest.raises(ValueError, match=match):
            spindle_spectrum(m, c, l_max=2, k_max=2)


class TestAppendixRatios:
    def test_circle_sqrt2(self):
        rows = appendix_ratio_check(circle_spectrum(1.0, 3), 3, grid=1 << 16)
        by_k = {k: (s, l) for k, s, l in rows}
        assert by_k[0] == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-9))
        for k in (1, 2):
            assert by_k[k][0] == pytest.approx(math.sqrt(2.0), abs=1e-6)
            assert by_k[k][1] == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_sphere_sqrt3(self):
        rows = appendix_ratio_check(sphere_spectrum(2, 1.0, 3), 3, grid=1 << 14)
        for k in (1, 2, 3):
            assert rows[k][1] == pytest.approx(math.sqrt(3.0), abs=1e-6)

    def test_regridding_stability(self):
        a = appendix_ratio_check(circle_spectrum(1.0, 4), 4, grid=1 << 16)
        b = appendix_ratio_check(circle_spectrum(1.0, 4), 4, grid=1 << 17)
        for (k1, s1, l1), (k2, s2, l2) in zip(a, b):
            assert s1 == pytest.approx(s2, abs=1e-6)
            assert l1 == pytest.approx(l2, abs=1e-6)

    def test_all_finite(self):
        rows = appendix_ratio_check(sphere_spectrum(2, 1.0, 8), 8, grid=1 << 13)
        for _, s, l in rows:
            assert math.isfinite(s) and math.isfinite(l)


def test_richardson_governs_mesh_quality():
    # the FD oracles run a mesh-doubling sequence internally; a successful
    # return certifies second-order ratios, which we cross-check here by
    # comparing two resolutions of the extrapolated values
    a, _ = weighted_circle_fd(1.0, TILT, 3, mesh=1024)
    b, _ = weighted_circle_fd(1.0, TILT, 3, mesh=4096)
    assert np.max(np.abs(a - b)) < 1e-6


if __name__ == "__main__":
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    for name, (mesh, build) in FIXTURES.items():
        path = os.path.join(FIXTURE_DIR, name)
        if os.path.exists(path):
            print(f"kept {path}")
        else:
            save_fixture(*build(), path, mesh)
            print(f"froze {path}")
