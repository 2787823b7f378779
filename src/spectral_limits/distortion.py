"""Monte-Carlo estimators of the two error-controlling integrals.

``v_p_eps`` measures the L^p-average deficit of geodesic ball volumes
against the curvature -K comparison model; ``s_eps`` measures the mass of
pairs that are eps-close in the surrogate metric but not in the geodesic
one.  Both feed the composite error expressions whose shape controls the
eigenvalue approximation.  ``run_distortion`` is the ``distortion`` report:
both integrals at the eps of each (n, seed) pair, with no sample or graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, _sorted_rows, map_pairs
from .geometry import ManifoldModel, _count, _exponent, _length, \
    _mc_ball_volume, _nonnegative, model_ball_volume

__all__ = [
    "Estimate",
    "v_p_eps",
    "s_eps",
    "theorem_error_terms",
    "delta_p_eps_a",
    "run_distortion",
]

# Monte-Carlo samples per ball volume, where the model has no closed form
_BALL_MC = 2000


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float


def v_p_eps(mfd: ManifoldModel, p: float, eps: float, K: float,
            n_mc: int, seed: int) -> Estimate:
    """L^p ball-volume deficit (integral over M of |1 - vol(B)/V_K|^p)^(1/p).

    Uniform Monte-Carlo over the manifold.  On the circle, the sphere and
    the flat torus a closed-form ball volume is the same at every point, so
    the integrand is a constant; elsewhere each ball volume is Monte-Carlo
    from ``_BALL_MC`` samples.  The standard error of the p-th power
    integral is pushed through the 1/p power by the delta method.
    """
    p, eps, K = _exponent(p), _length(eps, "eps"), _length(K, "K")
    n_mc = _count(n_mc, "n_mc", 2)      # for a standard error
    rng = np.random.Generator(np.random.PCG64(seed))
    vk = model_ball_volume(mfd.m, K, eps)
    z = mfd.uniform_intrinsic(n_mc, rng)
    exact0 = mfd.ball_volume_exact(z[0], eps)
    if exact0 is not None and mfd.kind in ("circle", "sphere", "flat_torus"):
        # homogeneous model: the integrand is a constant
        integrand = np.full(n_mc, abs(1.0 - exact0 / vk) ** p)
    else:
        vals = np.array([_mc_ball_volume(mfd, zi, eps, _BALL_MC, rng)[0]
                         for zi in z])
        integrand = np.abs(1.0 - vals / vk) ** p
    total = mfd.total_volume * float(np.mean(integrand))
    se_total = mfd.total_volume * float(np.std(integrand, ddof=1)) / math.sqrt(n_mc)
    value = total ** (1.0 / p)
    if total > 0:
        stderr = se_total * value / (p * total)
    else:
        stderr = se_total ** (1.0 / p)
    return Estimate(value=value, stderr=stderr)


def s_eps(mfd: ManifoldModel, eps: float, n_mc_outer: int = 200,
          n_mc_inner: int = 2000, seed: int = 0) -> Estimate:
    """Mass of eps-discrepancy between embedded (chord) and geodesic balls.

    Nested Monte-Carlo of the integral over x of vol(B_embedded(x, eps)
    minus B_geodesic(x, eps)), scaled by vol(M)^2; fresh inner samples per
    outer point keep the estimator unbiased.  Only pairs already close in
    the embedded metric need a geodesic evaluation, since the embedded
    distance never exceeds the geodesic one.
    """
    eps = _length(eps, "eps")
    n_mc_outer = _count(n_mc_outer, "n_mc_outer", 2)  # for a standard error
    n_mc_inner = _count(n_mc_inner, "n_mc_inner", 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    vol = mfd.total_volume
    means = np.empty(n_mc_outer)
    zx = mfd.uniform_intrinsic(n_mc_outer, rng)
    ex = mfd.embed(zx)
    for i in range(n_mc_outer):
        zy = mfd.uniform_intrinsic(n_mc_inner, rng)
        ey = mfd.embed(zy)
        chord = np.linalg.norm(ey - ex[i], axis=1)
        close = np.nonzero(chord < eps)[0]
        if len(close) == 0:
            means[i] = 0.0
            continue
        dg = mfd.geodesic_to_many(zx[i], zy[close])
        means[i] = float(np.mean(dg >= eps) * len(close)) / n_mc_inner
    value = vol * vol * float(np.mean(means))
    stderr = vol * vol * float(np.std(means, ddof=1)) / math.sqrt(n_mc_outer)
    return Estimate(value=value, stderr=stderr)


def theorem_error_terms(m: int, eps: float, v_m2_eps: float, s_eps_val: float):
    """The three unscaled error terms of the main eigenvalue estimate.

    Returns (eps^(m/(m+2)), V_{m+2,eps} * eps^(-2/(m+2)), S_eps * eps^-m);
    the multiplicative constant in front is non-constructive and omitted.
    """
    m, eps = _count(m, "m", 1), _length(eps, "eps")
    v_m2_eps = _nonnegative(v_m2_eps, "v_m2_eps")
    s_eps_val = _nonnegative(s_eps_val, "s_eps_val")
    t1 = eps ** (m / (m + 2.0))
    t2 = v_m2_eps * eps ** (-2.0 / (m + 2.0))
    t3 = s_eps_val * eps ** (-float(m))
    return t1, t2, t3


def delta_p_eps_a(m: int, p: float, eps: float, a: float,
                  v_p_eps_val: float, s_eps_val: float) -> float:
    """Composite accuracy for the eigenspace-approximation estimates."""
    m, p = _count(m, "m", 1), _exponent(p, above_two=True)
    eps, a = _length(eps, "eps"), _nonnegative(a, "a")
    v_p_eps_val = _nonnegative(v_p_eps_val, "v_p_eps_val")
    s_eps_val = _nonnegative(s_eps_val, "s_eps_val")
    expo = min(1.0 - 2.0 / p, m / (p - 2.0) - 2.0 / p)
    return a + eps**expo + v_p_eps_val * eps ** (-2.0 / p) + s_eps_val * eps ** (-float(m))


def run_distortion(cfg: ExperimentConfig):
    """Both estimates, one row per (n, seed), at the eps the config gives n."""
    def rows(mfd, dens, n, seed):
        eps = cfg.epsilon_for(n, mfd.m)
        v = v_p_eps(mfd, cfg.p, eps, cfg.K, cfg.mc_outer, seed)
        s = s_eps(mfd, eps, n_mc_outer=max(cfg.mc_outer // cfg.mc_inner, 50),
                  n_mc_inner=cfg.mc_inner, seed=seed)
        return [dict(n=n, seed=seed, eps=eps,
                     v_p_eps=v.value, v_stderr=v.stderr,
                     s_eps=s.value, s_stderr=s.stderr)]

    return _sorted_rows(map_pairs(cfg, rows))
