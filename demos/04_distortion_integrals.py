"""The two integrals that control the spectral approximation error.

The first measures how far geodesic ball volumes sit below the
constant-curvature comparison model; the second how much mass the chord
metric sees inside eps-balls that the geodesic metric does not.  Both admit
closed forms on homogeneous models, which the Monte-Carlo estimators must
reproduce; their composites give the error-term shapes of the eigenvalue
and eigenspace estimates.
"""

import math

from spectral_limits import (
    Circle,
    FlatTorus,
    delta_p_eps_a,
    s_eps,
    theorem_error_terms,
    v_p_eps,
)

# ball-volume deficit on the flat torus: disk area pi eps^2 against the
# curvature -1 model 2 pi (cosh eps - 1)
torus = FlatTorus((1.0, 1.0))
eps = 0.3
closed = 1.0 - math.pi * eps**2 / (2.0 * math.pi * (math.cosh(eps) - 1.0))
est = v_p_eps(torus, p=4.0, eps=eps, K=1.0, n_mc=200000, seed=1)
print(f"V_p_eps on the torus: MC {est.value:.6f} +- {est.stderr:.1e}, "
      f"closed form {closed:.6f}")

# chord-vs-arc discrepancy mass on the circle: arc in [eps, 2 asin(eps/2))
circle = Circle(1.0)
exact = 4.0 * math.pi * (2.0 * math.asin(0.5) - 1.0)
est_s = s_eps(circle, eps=1.0, n_mc_outer=500, n_mc_inner=4000, seed=2)
print(f"S_eps on the circle : MC {est_s.value:.6f} +- {est_s.stderr:.1e}, "
      f"exact {exact:.6f}")

# composite error-term shapes at one consistent scale: both integrals on
# the torus at the connectivity eps of n = 3000 (the paper-level constant
# is unknown and omitted; only the shapes are reported)
m, n = 2, 3000
eps_n = (math.log(n) / n) ** (1.0 / (m + 2))
v_n = v_p_eps(torus, p=m + 2.0, eps=eps_n, K=1.0, n_mc=50000, seed=3)
s_n = s_eps(torus, eps=eps_n, n_mc_outer=400, n_mc_inner=4000, seed=4)
t1, t2, t3 = theorem_error_terms(m, eps_n, v_n.value, s_n.value)
print(f"\nerror terms on the torus at n={n} (m={m}, eps={eps_n:.4f}):")
print(f"  eps^(m/(m+2))                = {t1:.4f}")
print(f"  V_(m+2),eps * eps^(-2/(m+2)) = {t2:.4f}")
print(f"  S_eps * eps^(-m)             = {t3:.4f}")
print(f"  delta_(p=4, eps, a=0)        = "
      f"{delta_p_eps_a(m, 4.0, eps_n, 0.0, v_n.value, s_n.value):.4f}")
