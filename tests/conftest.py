import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from spectral_limits.geometry import Circle, FlatTorus, Sphere, Spindle
from spectral_limits.graph import UpperTriangle, WeightedGraph, gamma_N_eps
from spectral_limits.sampling import DensitySpec, sample_dataset


def fake_cloud(embedded, m=1, total_volume=2.0 * math.pi):
    """A minimal stand-in cloud with prescribed embedded coordinates."""
    embedded = np.asarray(embedded, dtype=float)
    if embedded.ndim == 1:
        embedded = embedded[:, None]
    manifold = SimpleNamespace(m=m, total_volume=total_volume)
    return SimpleNamespace(embedded=embedded, n=len(embedded), manifold=manifold)


def custom_graph(n, edges, w_V, w_E=1.0, eps=1.0, kind="custom"):
    """A graph on the (E, 2) pairs ``edges``, in any order and orientation,
    with the one edge weight ``w_E``, given as a number or as equal
    per-edge values."""
    weights = np.unique(np.asarray(w_E, dtype=float))
    if len(weights) != 1:
        raise ValueError(f"a graph has one edge weight, got {weights}")
    pairs = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    upper = sparse.csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                              shape=(n, n))
    upper.sort_indices()
    return WeightedGraph(
        n_vertices=n,
        epsilon=eps,
        upper=UpperTriangle(upper.indptr.astype(np.int64),
                            upper.indices.astype(np.int32)),
        w_V=np.asarray(w_V, dtype=float),
        w_E=weights[0],
        kind=kind,
    )


@pytest.fixture(scope="session")
def circle():
    return Circle(1.0)


@pytest.fixture(scope="session")
def sphere2():
    return Sphere(2, 1.0)


@pytest.fixture(scope="session")
def torus():
    return FlatTorus((1.0, 1.0))


@pytest.fixture(scope="session")
def spindle2():
    return Spindle(2)


@pytest.fixture(scope="session")
def spindle3():
    return Spindle(3)


@pytest.fixture(scope="session")
def circle_cloud_200(circle):
    return sample_dataset(circle, DensitySpec("uniform"), 200, seed=3)


@pytest.fixture(scope="session")
def circle_graph_200(circle_cloud_200):
    from spectral_limits.sampling import epsilon_schedule

    eps = epsilon_schedule(200, 1)
    return gamma_N_eps(circle_cloud_200, eps)


@pytest.fixture(scope="session")
def path3_gamma_N():
    """Collinear points 0, 0.5, 1.2 at eps 1: the two-edge path graph."""
    cloud = fake_cloud([0.0, 0.5, 1.2], m=1)
    return gamma_N_eps(cloud, 1.0)
