"""Kernel interpolation and the discrete-vs-continuous energy comparison.

A graph function extends to the manifold through the truncated-parabola
kernel: the normalized weights form a partition of unity, so constants map
to constants and values stay inside the range.  In the other direction, a
smooth function restricts to the sample, and its discrete Dirichlet energy
concentrates at 1/(m+2) times the weighted continuum energy.
"""

import math

import numpy as np

from spectral_limits import (
    Circle,
    DensitySpec,
    KernelContext,
    TestFunction,
    energy_comparison_report,
    gamma_N_eps,
    interpolate,
    l2_norm_comparison_report,
    psi_eps,
    sample_dataset,
    theta_K_eps,
    theta_eps,
    theta_n_eps,
)
from spectral_limits.sampling import epsilon_schedule

circle = Circle(1.0)
n, eps = 2000, 0.3
cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed=3)
ctx = KernelContext(cloud, eps)

# kernel density: empirical vs continuum (closed form eps / (3 pi))
x = [1.234]  # chart coordinates: the angle
tn = theta_n_eps(ctx, x)
tc = theta_eps(circle, DensitySpec("uniform"), x, eps=eps)
print(f"theta_n = {tn:.6f}, theta = {tc:.6f} (closed form "
      f"{eps / (3 * math.pi):.6f})")
print(f"comparison-model mass theta_K = {theta_K_eps(1, 1.0, eps):.6f} "
      f"(2 eps / 3 = {2 * eps / 3:.6f})")

# partition of unity and range preservation
phi = np.sin(3.0 * cloud.intrinsic[:, 0])
print(f"interpolated constant: {interpolate(ctx, np.ones(n), x):.12f}")
val = interpolate(ctx, phi, x)
print(f"interpolated sin(3t) at t=1.234: {val:.4f} "
      f"(true {math.sin(3 * 1.234):.4f}, kernel at radius {psi_eps(0.0, eps)})")

# energy and norm comparisons for f = cos(theta)
f = TestFunction(
    name="cos",
    values=lambda zi, ze: np.cos(np.atleast_2d(zi)[:, 0]),
    grad_sq_rho2=1.0 / (4.0 * math.pi),
    sq_rho=0.5,
    sq_rho2=1.0 / (4.0 * math.pi),
)
for n in (1000, 4000):
    cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed=5)
    eps_n = epsilon_schedule(n, 1)
    g = gamma_N_eps(cloud, eps_n)
    er = energy_comparison_report(g, cloud, f)
    l2 = l2_norm_comparison_report(g, cloud, f)
    print(f"\nn = {n}, eps = {eps_n:.4f}")
    print(f"  Dirichlet: discrete {er.discrete:.6f} vs continuum/(m+2) "
          f"{er.continuous:.6f} (diff {er.difference:+.6f})")
    print(f"  L2 plain : {l2.plain_discrete:.6f} vs {l2.plain_continuous:.6f}")
    print(f"  L2 degree: {l2.degree_discrete:.6f} vs "
          f"{l2.degree_continuous:.6f}")
