"""Beyond smooth manifolds: the spindle, a non-collapsed Ricci limit space.

The spindle is the completion of a warped product over a sphere with
profile sin(theta)/sqrt(2); its two tips are metric cones of total angle
pi*sqrt(2) < 2*pi, so no smooth chart exists there.  Graphs built from
samples never see the (measure-zero) tips, and their spectra still converge
to the spectrum of the limit operator, here known in closed form: per
fiber harmonic, a Gegenbauer radial problem.
"""

import math

import numpy as np

from spectral_limits import (
    DensitySpec,
    Spindle,
    eigen_decompose,
    epsilon_schedule,
    gamma_N_eps,
    sample_dataset,
    spindle_spectrum,
)

spindle = Spindle(m=3)  # guaranteed-convergence regime needs m >= 3
print(f"spindle m=3, c=1/sqrt2: volume = {spindle.total_volume:.6f} "
      f"(pi^2 = {math.pi**2:.6f})")

# tip geometry: near a tip the space is a cone; two points across it are
# closer through the unrolled cone than along meridians through the tip
a = np.r_[0.05, 1.0, 0.0, 0.0]
b = np.r_[0.07, -1.0, 0.0, 0.0]
cone = math.sqrt(0.05**2 + 0.07**2
                 - 2 * 0.05 * 0.07 * math.cos(spindle.c * math.pi))
print(f"near-tip distance {spindle.geodesic(a, b):.6f} "
      f"(cone chord {cone:.6f}, meridian pair 0.12)")

reference = spindle_spectrum(3, spindle.c, l_max=6, k_max=6)
print("\nclosed-form spectrum:", np.round(reference.eigenvalues, 4))
print("fiber labels (l, radial):", reference.labels)

for n in (1000, 4000):
    cloud = sample_dataset(spindle, DensitySpec("uniform"), n, seed=1)
    graph = gamma_N_eps(cloud, epsilon_schedule(n, 3))
    spec = eigen_decompose(graph, 3)
    est = 5.0 * spec.eigenvalues  # (m + 2) = 5
    errs = np.abs(est[1:4] - reference.eigenvalues[1:4])
    print(f"n = {n}: 5*lam_1..3 = {np.round(est[1:4], 3)} "
          f"vs {np.round(reference.eigenvalues[1:4], 3)} "
          f"(abs errors {np.round(errs, 3)})")
