"""Convergence sweep: median spectral error vs sample size, with an SVG.

The error of the rescaled graph eigenvalues against the continuum spectrum
should trend downward in n; the sweep reports medians over seeds, the
log-log slope per eigenvalue index, and draws a minimal SVG line chart,
``sweep_circle.svg``, in the working directory.
"""

from spectral_limits.config import ExperimentConfig
from spectral_limits.experiments import run_convergence_sweep

cfg = ExperimentConfig(
    manifold="circle",
    density="uniform",
    n_list=[500, 1000, 2000, 4000],
    seeds=[1, 2, 3, 4, 5],
    eps_rule="schedule",
    graph_kind="gamma_N",
    k_max=3,
)

out = "sweep_circle.svg"
rows = run_convergence_sweep(cfg, svg_path=out)

print(f"{'k':>2} {'n':>6} {'median |err|':>13} {'slope':>8}")
for r in rows:
    print(f"{r['k']:>2} {r['n']:>6} {r['median_abs_err']:>13.5f} "
          f"{r['slope']:>8.3f}")
print(f"\nSVG written to {out}")
