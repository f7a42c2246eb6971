import numpy as np
import pytest

from ffverify import aklt, graph, hamiltonian


@pytest.fixture(scope="session")
def chain4():
    """AKLT Hamiltonian on the closed chain with 4 spin-1 nodes (dim 81)."""
    return aklt.aklt_hamiltonian(graph.chain(4, closed=True))


@pytest.fixture(scope="session")
def icosahedron():
    return aklt.design_catalog("icosahedron")


@pytest.fixture(scope="session")
def tetrahedron():
    return aklt.design_catalog("tetrahedron")


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_direction_distribution(rng: np.random.Generator, n_points: int):
    points = np.stack([random_unit_vector(rng) for _ in range(n_points)])
    weights = rng.random(n_points)
    return aklt.DirectionDistribution(points, weights / weights.sum())


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def open_spin_one_chain(n: int) -> hamiltonian.FFHamiltonian:
    """AKLT projectors on an open chain of spin-1 sites: the two free edge
    spins-1/2 leave a rank-4 ground space."""
    g = graph.chain(n)
    p = aklt.coupled_spin_projector(2, 2)
    projectors = {e: p for e in g.edges}
    return hamiltonian.FFHamiltonian(g, projectors, {v: 3 for v in g.vertices})
