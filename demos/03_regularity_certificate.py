"""Regularity certificates: doubling, Poincare, almost-regularity, Moser.

Graphs built from dense-enough samples inherit, with high probability, a
volume-doubling property, a two-ball Poincare inequality, and local weight
regularity.  These three constants feed a Nash-type inequality whose
iteration bounds eigenvector p-norms; everything here is measured, not
assumed.  Stability of the constants across n is the empirical signature.
"""

import numpy as np

from spectral_limits import (
    Circle,
    DensitySpec,
    certify,
    eigen_decompose,
    epsilon_schedule,
    gamma_N_eps,
    nash_diagnostic,
    sample_dataset,
)
from spectral_limits.regularity import graph_diameter

circle = Circle(1.0)

print(f"{'n':>5} {'Q':>7} {'P':>7} {'R':>7} {'nu=log2 Q':>10} "
      f"{'||phi1||_4/||phi1||_1':>22}")
for n in (500, 1000, 2000):
    cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed=7)
    g = gamma_N_eps(cloud, epsilon_schedule(n, 1))
    spec = eigen_decompose(g, 2)
    cert = certify(g, spectral=spec, seed=7)
    moser4 = dict(((k, p), r) for k, p, r in cert.moser_table)[(1, 4)]
    print(f"{n:>5} {cert.Q:>7.3f} {cert.P:>7.3f} {cert.R:>7.3f} "
          f"{cert.nu:>10.3f} {moser4:>22.4f}")

# the Nash-type diagnostic: fitted constant per test function, never a gate
n = 1000
cloud = sample_dataset(circle, DensitySpec("uniform"), n, seed=7)
g = gamma_N_eps(cloud, epsilon_schedule(n, 1))
spec = eigen_decompose(g, 3)
cert = certify(g, spectral=spec, seed=7)
D = graph_diameter(g)
rng = np.random.default_rng(0)
cs = [nash_diagnostic(g, rng.standard_normal(n), D, cert.nu) for _ in range(5)]
cs += [nash_diagnostic(g, np.abs(spec.eigenvectors[:, k]), D, cert.nu)
       for k in (1, 2, 3)]
print(f"\nNash fitted constants (D = {D:.2f}, nu = {cert.nu:.2f}):")
print("  random functions :", np.round(cs[:5], 4))
print("  |eigenvectors|   :", np.round(cs[5:], 4))
print("  aggregated max   :", round(max(cs), 4))
