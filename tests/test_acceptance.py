"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, none deferred.
"""

import math
import time

import numpy as np
import pytest

from spectral_limits.distortion import s_eps, v_p_eps
from spectral_limits.geometry import (
    Circle,
    FlatTorus,
    Sphere,
    Spindle,
    bishop_gromov_ratio,
)
from spectral_limits.graph import gamma_N_eps, laplacian_apply, random_walk_matrix
from spectral_limits.interpolation import psi_eps
from spectral_limits.reference import (
    appendix_ratio_check,
    circle_spectrum,
    sphere_spectrum,
    spindle_spectrum,
    weighted_circle_spectrum,
)
from spectral_limits.regularity import (
    almost_regularity,
    doubling_constant,
    poincare_constant,
    weighted_p_norm,
)
from spectral_limits.sampling import (
    DensitySpec,
    bernstein_bound,
    bernstein_empirical_check,
    epsilon_schedule,
    sample_dataset,
)
from spectral_limits.spectral import eigen_decompose
from spectral_limits.experiments import (
    ExperimentConfig,
    align_eigenspaces,
    run_convergence_sweep,
)

SEEDS = [1, 2, 3, 4, 5]


def report(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def spectral_estimates(mfd, dens, n, seeds, k_max, scale):
    """(scale * lambda_k) per seed, via the gamma_N graph on embedded chords."""
    out = []
    for seed in seeds:
        cloud = sample_dataset(mfd, dens, n, seed)
        eps = epsilon_schedule(n, mfd.m)
        g = gamma_N_eps(cloud, eps)
        res = eigen_decompose(g, k_max)
        out.append(scale * res.eigenvalues)
    return np.array(out)


def test_a1_circle_convergence():
    t0 = time.time()
    est = spectral_estimates(Circle(1.0), DensitySpec("uniform"), 4000,
                             SEEDS, 3, scale=3.0)
    err1 = float(np.median(np.abs(est[:, 1] - 1.0)))
    err3 = float(np.median(np.abs(est[:, 3] - 4.0)))
    dt = time.time() - t0
    ok = err1 <= 0.20 and err3 <= 0.8 and dt <= 60.0
    report("A1", ok,
           f"median |3*lam1 - 1| = {err1:.4f} (<= 0.20), "
           f"median |3*lam3 - 4| = {err3:.4f} (<= 0.8), runtime {dt:.1f}s (<= 60)")


def test_a2_sphere_band():
    t0 = time.time()
    est = spectral_estimates(Sphere(2, 1.0), DensitySpec("uniform"), 3000,
                             SEEDS, 3, scale=4.0)
    meds = [float(np.median(est[:, k])) for k in (1, 2, 3)]
    dt = time.time() - t0
    ok = all(1.5 <= m <= 2.5 for m in meds) and dt <= 120.0
    report("A2", ok,
           f"median 4*lam_k = {[round(m, 3) for m in meds]} (in [1.5, 2.5]), "
           f"runtime {dt:.1f}s (<= 120)")


def test_a3_rate_trend():
    cfg = ExperimentConfig(manifold="circle", n_list=[500, 1000, 2000, 4000],
                           seeds=SEEDS, k_max=1)
    rows = run_convergence_sweep(cfg)
    slope = rows[0]["slope"]
    ok = slope <= -0.1
    report("A3", ok, f"log-log slope of median |error| vs n = {slope:.3f} (<= -0.1)")


def test_a4_eigenspace_alignment():
    sphere = Sphere(2, 1.0)
    ref = sphere_spectrum(2, 1.0, 5)
    med = {}
    for n in (1000, 3000):
        vals = []
        for seed in SEEDS:
            cloud = sample_dataset(sphere, DensitySpec("uniform"), n, seed)
            g = gamma_N_eps(cloud, epsilon_schedule(n, 2))
            res = eigen_decompose(g, 4)
            rep = align_eigenspaces(g, res, ref, cloud, (1, 3))
            vals.append(float(np.median(rep.relative_residuals)))
        med[n] = float(np.median(vals))
    ok = med[3000] <= 0.3 and med[3000] <= med[1000]
    report("A4", ok,
           f"median rel projection residual: n=1000 -> {med[1000]:.4f}, "
           f"n=3000 -> {med[3000]:.4f} (<= 0.3 and nonincreasing)")


def test_a5_matrix_identity():
    circle = Circle(1.0)
    cloud = sample_dataset(circle, DensitySpec("uniform"), 500, seed=3)
    eps = epsilon_schedule(500, 1)
    L = random_walk_matrix(cloud, eps)
    g = gamma_N_eps(cloud, eps)
    rng = np.random.default_rng(0)
    dev = 0.0
    for _ in range(100):
        v = rng.standard_normal(500)
        dev = max(dev, float(np.max(np.abs(L @ v - laplacian_apply(g, v)))))
    ok = dev <= 1e-12
    report("A5", ok, f"max |L_n v - Lap_GammaN v| over 100 vectors = {dev:.2e} (<= 1e-12)")


def test_a6_distortion_oracles():
    torus = FlatTorus((1.0, 1.0))
    want_v = 1.0 - math.pi * 0.09 / (2.0 * math.pi * (math.cosh(0.3) - 1.0))
    est_v = v_p_eps(torus, p=4.0, eps=0.3, K=1.0, n_mc=200000, seed=1)
    rel_v = abs(est_v.value - want_v) / want_v

    circle = Circle(1.0)
    want_s = 2.0 * math.pi * 2.0 * (2.0 * math.asin(0.5) - 1.0)
    est_s = s_eps(circle, eps=1.0,
                  n_mc_outer=500, n_mc_inner=4000, seed=2)
    rel_s = abs(est_s.value - want_s) / want_s
    ok = rel_v <= 0.02 and rel_s <= 0.03
    report("A6", ok,
           f"V_p_eps torus rel dev {rel_v:.4f} (<= 0.02), "
           f"S_eps circle rel dev {rel_s:.4f} (<= 0.03)")


def test_a7_bishop_gromov_monotone():
    worst = 0.0
    for mfd in (Sphere(2, 1.0), FlatTorus((1.0, 1.0))):
        x = mfd.uniform_intrinsic(1, np.random.default_rng(5))[0]
        rs = np.linspace(0.02, 1.5, 60)
        ratios = np.array([bishop_gromov_ratio(mfd, x, r, 1.0) for r in rs])
        worst = max(worst, float(np.max(np.diff(ratios))))
    ok = worst <= 1e-8
    report("A7", ok, f"worst upward jump of vol(B)/V_K over r-grids = {worst:.2e} (<= 1e-8)")


def test_a8_regularity_stability():
    circle = Circle(1.0)
    qs, ps, rs = [], [], []
    for n in (500, 1000, 2000):
        cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed=7)
        g = gamma_N_eps(cloud, epsilon_schedule(n, 1))
        qs.append(doubling_constant(g, seed=7))
        ps.append(poincare_constant(g, seed=7))
        rs.append(almost_regularity(g))
    spreads = {name: float(max(v) / min(v)) for name, v in
               (("Q", qs), ("P", ps), ("R", rs))}
    finite = all(map(math.isfinite, qs + ps + rs))
    ok = finite and all(s <= 4.0 for s in spreads.values())
    report("A8", ok,
           f"Q={np.round(qs, 3).tolist()} P={np.round(ps, 3).tolist()} "
           f"R={np.round(rs, 3).tolist()}; spreads "
           f"{ {k: round(v, 2) for k, v in spreads.items()} } (each <= 4)")


def test_a9_moser_shape_stability():
    circle = Circle(1.0)
    ratios = {}
    for n in (1000, 4000):
        cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed=2)
        g = gamma_N_eps(cloud, epsilon_schedule(n, 1))
        res = eigen_decompose(g, 5)
        ratios[n] = [
            weighted_p_norm(g, np.abs(res.eigenvectors[:, k]), 4)
            / weighted_p_norm(g, np.abs(res.eigenvectors[:, k]), 1)
            for k in range(6)
        ]
    spread = [max(a, b) / min(a, b) for a, b in zip(ratios[1000], ratios[4000])]
    ok = max(spread) <= 2.0
    report("A9", ok,
           f"p=4 over p=1 norm-ratio spread across n per k <= 5: "
           f"{np.round(spread, 3).tolist()} (each <= 2)")


def test_a10_weighted_laplacian():
    circle = Circle(1.0)
    dens = DensitySpec("cosine_tilt", amplitude=0.2)
    fd = weighted_circle_spectrum(1.0, dens, 2, mesh=4096)
    lam_fd = float(fd.eigenvalues[1])
    rels = []
    for seed in SEEDS:
        cloud = sample_dataset(circle, dens, 4000, seed)
        g = gamma_N_eps(cloud, epsilon_schedule(4000, 1))
        res = eigen_decompose(g, 1)
        rels.append(abs(3.0 * res.eigenvalues[1] - lam_fd) / lam_fd)
    med = float(np.median(rels))
    ok = med <= 0.25
    report("A10", ok,
           f"median |3*lam1 - lam1_FD| / lam1_FD = {med:.4f} (<= 0.25), "
           f"lam1_FD = {lam_fd:.6f}")


def test_a11_ricci_limit_spindle():
    t0 = time.time()
    spindle = Spindle(3)
    ref = spindle_spectrum(3, 1.0 / math.sqrt(2.0), l_max=6, k_max=2, mesh=2048)
    lam_ref = float(ref.eigenvalues[1])
    rels = []
    for seed in SEEDS:
        cloud = sample_dataset(spindle, DensitySpec("uniform"), 4000, seed)
        g = gamma_N_eps(cloud, epsilon_schedule(4000, 3))
        res = eigen_decompose(g, 1)
        rels.append(abs(5.0 * res.eigenvalues[1] - lam_ref) / lam_ref)
    med = float(np.median(rels))
    dt = time.time() - t0
    ok = med <= 0.4 and dt <= 300.0
    report("A11", ok,
           f"median rel error of 5*lam1 vs Sturm-Liouville {lam_ref:.5f} "
           f"= {med:.4f} (<= 0.4), runtime {dt:.1f}s (<= 300)")


def test_a12_bernstein_contract():
    circle = Circle(1.0)
    f = lambda zi, ze: np.cos(np.atleast_2d(zi)[:, 0])
    trials = 200
    rate = bernstein_empirical_check(circle, DensitySpec("uniform"), f,
                                     n=500, delta=0.1, trials=trials, seed=11)
    sigma = math.sqrt(0.5)
    _, failure = bernstein_bound(1.0, sigma, 500, 0.1)
    bound = failure + 3.0 * math.sqrt(failure / trials) + 0.01
    ok = rate <= bound
    report("A12", ok, f"violation rate {rate:.4f} <= contract bound {bound:.4f}")


def test_a13_solver_oracle_equivalence():
    graphs = []
    circle = Circle(1.0)
    sphere = Sphere(2, 1.0)
    torus = FlatTorus((1.0, 1.0))
    for mfd, n in ((circle, 200), (circle, 500), (sphere, 400), (torus, 320)):
        cloud = sample_dataset(mfd, DensitySpec("uniform"), n, seed=4)
        graphs.append(gamma_N_eps(cloud, epsilon_schedule(n, mfd.m) * 1.4))
    worst = 0.0
    worst0 = 0.0
    for g in graphs:
        dense = eigen_decompose(g, 5, method="dense")
        lanc = eigen_decompose(g, 5, tol=0.0, method="lanczos")
        worst0 = max(worst0, abs(float(lanc.eigenvalues[0])))
        for k in range(1, 6):
            worst = max(worst, abs(lanc.eigenvalues[k] - dense.eigenvalues[k])
                        / dense.eigenvalues[k])
    ok = worst <= 1e-8 and worst0 <= 1e-9
    report("A13", ok,
           f"max relative deviation (k >= 1) = {worst:.2e} (<= 1e-8), "
           f"|lam0| = {worst0:.2e} (<= 1e-9)")


def test_a14_appendix_ratios():
    rows_c = appendix_ratio_check(circle_spectrum(1.0, 2), 2, grid=1 << 16)
    rows_s = appendix_ratio_check(sphere_spectrum(2, 1.0, 3), 3, grid=1 << 14)
    dev_c = max(abs(s - math.sqrt(2.0)) for _, s, _ in rows_c[1:])
    dev_s = max(abs(s - math.sqrt(3.0)) for _, s, _ in rows_s[1:])
    ok = dev_c <= 1e-6 and dev_s <= 1e-6
    report("A14", ok,
           f"sup/L2 deviation: circle vs sqrt2 = {dev_c:.2e}, "
           f"sphere vs sqrt3 = {dev_s:.2e} (each <= 1e-6)")
