"""Probability densities on the model manifolds and i.i.d. dataset draws.

Densities come in two kinds: ``uniform`` on any model and a
``cosine_tilt`` on the circle (smooth and non-uniform, with an exact
inverse-CDF sampler).  Draws are reproducible: the generator is PCG64
seeded directly with the dataset seed, and parallel trials derive disjoint
child seeds through :func:`derive_seeds`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Circle, ManifoldModel

__all__ = [
    "DensitySpec",
    "PointCloud",
    "sample_dataset",
    "epsilon_schedule",
    "bernstein_bound",
    "bernstein_empirical_check",
    "derive_seeds",
]


@dataclass(frozen=True)
class DensitySpec:
    """A density on a model manifold: its pdf and an exact sampler.

    ``amplitude`` only applies to ``cosine_tilt`` (must be <= 0.5), which
    lives on the circle alone.  ``pdf`` is with respect to the Riemannian
    volume of the model it is given, and integrates to one there.
    """

    kind: str = "uniform"
    amplitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform", "cosine_tilt"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.kind == "cosine_tilt" and not 0.0 <= self.amplitude <= 0.5:
            raise ValueError("cosine_tilt amplitude must lie in [0, 0.5]")

    def _check_circle(self, mfd: ManifoldModel):
        if not isinstance(mfd, Circle):
            raise ValueError(f"{self.kind} density is only available on the circle")

    def pdf(self, mfd: ManifoldModel, intrinsic) -> np.ndarray:
        """The density at the chart coordinates ``intrinsic`` of ``mfd``."""
        z = np.atleast_2d(np.asarray(intrinsic, dtype=float))
        if self.kind == "uniform":
            return np.full(len(z), 1.0 / mfd.total_volume)
        self._check_circle(mfd)
        return ((1.0 + self.amplitude * np.cos(z[:, 0]))
                / (2.0 * math.pi * mfd.radius))

    def sample(self, mfd: ManifoldModel, n: int,
               rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws from the density, as chart coordinates of ``mfd``."""
        if self.kind == "uniform":
            return mfd.uniform_intrinsic(n, rng)
        self._check_circle(mfd)
        a0 = self.amplitude
        # inverse CDF of F(t) = (t + a0 sin t)/(2 pi), Newton from t = 2 pi u
        u = rng.uniform(0.0, 1.0, size=n)
        t = 2.0 * math.pi * u
        for _ in range(60):
            f = (t + a0 * np.sin(t)) / (2.0 * math.pi) - u
            t = t - 2.0 * math.pi * f / (1.0 + a0 * np.cos(t))
        return (t % (2.0 * math.pi))[:, None]


# ---------------------------------------------------------------------------
# datasets


@dataclass
class PointCloud:
    """An i.i.d. sample of a density on a model manifold."""

    manifold: ManifoldModel
    seed: int
    intrinsic: np.ndarray
    embedded: np.ndarray

    @property
    def n(self) -> int:
        return len(self.intrinsic)

    def to_csv(self) -> str:
        mfd = self.manifold
        buf = io.StringIO()
        buf.write(
            f"# manifold={mfd.kind} n={self.n} seed={self.seed} d={mfd.embedding_dim}\n"
        )
        for zi, xe in zip(self.intrinsic, self.embedded):
            row = [f"{v:.17g}" for v in zi] + [f"{v:.17g}" for v in xe]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def sample_dataset(mfd: ManifoldModel, dens: DensitySpec, n: int,
                   seed: int) -> PointCloud:
    """Draw n i.i.d. points from a density; bit-reproducible for fixed seed."""
    if n < 2:
        raise ValueError("need n >= 2 sample points")
    rng = np.random.Generator(np.random.PCG64(seed))
    z = np.atleast_2d(np.asarray(dens.sample(mfd, n, rng), dtype=float))
    return PointCloud(
        manifold=mfd,
        seed=int(seed),
        intrinsic=z,
        embedded=mfd.embed(z),
    )


def derive_seeds(seed: int, k: int) -> list[int]:
    """Derive k disjoint 64-bit child seeds from one parent seed."""
    children = np.random.SeedSequence(seed).spawn(k)
    return [int(c.generate_state(1, dtype=np.uint64)[0]) for c in children]


def epsilon_schedule(n: int, m: int) -> float:
    """Connectivity scale (log n / n)^(1/(m+2)) for an n-point sample."""
    if n < 3:
        raise ValueError("need n >= 3 for the epsilon schedule")
    return (math.log(n) / n) ** (1.0 / (m + 2))


# ---------------------------------------------------------------------------
# Bernstein concentration


def bernstein_bound(sup_norm: float, sigma: float, n: int, delta: float):
    """Deviation level and failure probability of the Bernstein inequality.

    For bounded f, the empirical mean of n i.i.d. evaluations deviates from
    the true mean by more than ``2*sup*delta^2 + 4*sigma*delta`` with
    probability at most ``2*exp(-n*delta^2)``.
    """
    if sup_norm < 0 or sigma < 0 or n <= 0 or delta < 0:
        raise ValueError("bernstein_bound arguments must be nonnegative, n > 0")
    deviation = 2.0 * sup_norm * delta**2 + 4.0 * sigma * delta
    failure = 2.0 * math.exp(-n * delta**2)
    return deviation, failure


def bernstein_empirical_check(mfd, dens: DensitySpec, f, n: int, delta: float,
                              trials: int, seed: int) -> float:
    """Empirical violation rate of the Bernstein deviation bound.

    ``f`` maps (intrinsic, embedded) coordinate arrays to one value per
    point.  The model must be the circle: the true mean, variance and sup
    norm are computed against the density by quadrature.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if not isinstance(mfd, Circle):
        raise ValueError(f"the Bernstein check needs the circle, not {mfd.kind!r}")

    th = np.linspace(0.0, 2.0 * math.pi, 40001)
    z = th[:, None]
    vals = np.asarray(f(z, mfd.embed(z)), dtype=float)
    w = dens.pdf(mfd, z) * mfd.radius
    mean = np.trapezoid(vals * w, th)
    second = np.trapezoid(vals**2 * w, th)
    sup = float(np.max(np.abs(vals)))
    sigma = math.sqrt(max(second - mean**2, 0.0))
    deviation, _ = bernstein_bound(sup, sigma, n, delta)

    violations = 0
    for child in derive_seeds(seed, trials):
        cloud = sample_dataset(mfd, dens, n, child)
        emp = float(np.mean(f(cloud.intrinsic, cloud.embedded)))
        if abs(emp - mean) > deviation:
            violations += 1
    return violations / trials
