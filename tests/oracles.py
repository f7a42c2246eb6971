"""Dense full-space oracles for the tests.

The package computes every quantity matrix-free; each has one dense
counterpart here: H and its ground projector, products of embedded local
operators (test operators, bond-test products), Omega, nu from dense Omega
and Q0, a bond operator summed one direction at a time, the density matrix
of a prepared state (its ground part from the dense ground projector), the
two reference forms of the bond overlap trace, and the spin-coherent states
by eigh.  They are built on `linalg.embed` and numpy/scipy only, so they
stay independent of the apply plans and Lanczos solves they check.  Keeping
the dimension small is the caller's job.  `planted_kernel` draws
frustration-free instances whose kernel holds a planted span of product
states, for differential tests of the low-spectrum solve.  `basis_rotated`
copies of a Hamiltonian keep its spectrum but fail the SU(2) check, so the
package solves them in the full space: the oracle of the sector solves at
sizes beyond dense H.
"""

import functools
import math

import numpy as np
import scipy.linalg

from ffverify import aklt, linalg
from ffverify.errors import InputError
from ffverify.graph import Hypergraph
from ffverify.hamiltonian import FFHamiltonian
from ffverify.tolerances import GROUND_TOL


def embedded(h, matrix, support) -> np.ndarray:
    """A local matrix on `support` tensored with the identity on h's other nodes."""
    return linalg.embed(matrix, support, h.node_order, h.node_dims)


def hamiltonian(h) -> np.ndarray:
    """H as the sum of its embedded projectors."""
    out = np.zeros((h.dim, h.dim), dtype=complex)
    for e, p in h.projectors.items():
        out += embedded(h, p, e)
    return out


def ground_projector(h) -> np.ndarray:
    """Projector onto the eigenvectors of the dense H below GROUND_TOL."""
    vals, vecs = scipy.linalg.eigh(hamiltonian(h))
    ground = vecs[:, vals < GROUND_TOL]
    return ground @ ground.conj().T


def local_product(h, factors) -> np.ndarray:
    """Product of embedded local operators given as (matrix, support) pairs,
    the first pair acting first."""
    out = np.eye(h.dim, dtype=complex)
    for matrix, support in factors:
        out = embedded(h, matrix, support) @ out
    return out


def matching_operator(protocol, matching) -> np.ndarray:
    """Test operator of one matching: the product of its bond operators."""
    return local_product(protocol.hamiltonian,
                         [(protocol.bond_ops[e].matrix, e) for e in matching])


def omega(protocol) -> np.ndarray:
    """Verification operator: the probability-weighted sum of the test operators."""
    d = protocol.hamiltonian.dim
    out = np.zeros((d, d), dtype=complex)
    for m, p in zip(protocol.cover.matchings, protocol.cover.probabilities):
        out += p * matching_operator(protocol, m)
    return out


def nu(omega_dense: np.ndarray, q0: np.ndarray) -> float:
    """1 - ||(1 - Q0) Omega (1 - Q0)||, refused when Omega moves the range of Q0."""
    defect = np.linalg.norm(omega_dense @ q0 - q0, 2)
    if defect > 1e-9:
        raise InputError(f"Omega does not fix the target subspace ({defect:.2e})")
    comp = np.eye(len(q0)) - q0
    return 1.0 - np.linalg.norm(comp @ omega_dense @ comp, 2)


def density_matrix(h, state) -> np.ndarray:
    """sum_i w_i |v_i><v_i| + white * I/dim + rest * Q0/rank of a PreparedState
    of h, rest = 1 - white - sum_i w_i, with Q0 the dense `ground_projector`."""
    q0 = ground_projector(h)
    rest = 1.0 - state.white - sum(w for w, _ in state.ensemble)
    out = np.eye(state.dim, dtype=complex) * (state.white / state.dim)
    out += q0 * (rest / round(np.real(np.trace(q0))))
    for w, v in state.ensemble:
        out += w * np.outer(v, v.conj())
    return out


def planted_kernel(seed: int, r: int, real: bool, max_dim: int):
    """A frustration-free instance whose kernel holds the span of r random
    product states, real or complex, on 4-7 nodes of dimension 2-3 (redrawn
    until d <= max_dim): chain edges, closed or not, plus up to two random
    3-node edges.  Each edge's projector is the complement of the span of the
    states' factors on it, so it vanishes only where r reaches the edge's
    dimension; the kernel may be larger than the planted span."""
    rng = np.random.default_rng(seed)
    dims = [max_dim + 1]
    while math.prod(dims) > max_dim:
        dims = [int(d) for d in rng.integers(2, 4, int(rng.integers(4, 8)))]
    n = len(dims)
    edges = {(i, i + 1) for i in range(n - 1)}
    if rng.random() < 0.5:
        edges.add((0, n - 1))
    for _ in range(int(rng.integers(0, 3))):
        edges.add(tuple(sorted(int(v) for v in rng.choice(n, 3, replace=False))))

    def draw(d):
        v = rng.standard_normal((r, d))
        return v if real else v + 1j * rng.standard_normal((r, d))

    factors = [draw(d) for d in dims]
    projectors = {}
    for e in sorted(edges):
        local = functools.reduce(lambda a, b: (a[:, :, None] * b[:, None, :]).reshape(r, -1),
                                 [factors[v] for v in e])
        u, sv, _ = np.linalg.svd(local.T)
        comp = u[:, int(np.sum(sv > 1e-10 * sv[0])):]  # the complement of the span
        projectors[e] = comp @ comp.conj().T
    return FFHamiltonian(Hypergraph(tuple(range(n)), tuple(sorted(edges))), projectors,
                         dict(enumerate(dims)))


def overlap_trace_binomial(twice_se: int, c: float) -> float:
    """Even-power expansion of aklt.overlap_trace; equal by a binomial identity."""
    t = twice_se
    acc = sum(math.comb(t, 2 * j) * c ** (2 * j) for j in range(t // 2 + 1))
    return t - 3 + 2.0 ** (2 - t) * acc


def overlap_trace_matrix(b: aklt.Bond, r, s) -> float:
    """tr[(R_r - Q_e)(R_s - Q_e)] from the bond test matrices."""
    q = b.ground_projector
    a = aklt.bond_test_projector(b, r) - q
    bm = aklt.bond_test_projector(b, s) - q
    return float(np.real(np.trace(a @ bm)))


def bond_operator(b: aklt.Bond, mu) -> np.ndarray:
    """Omega_e as the weighted sum of mu's bond tests, one direction at a time."""
    out = np.zeros((b.dim, b.dim), dtype=complex)
    for w, r in zip(mu.weights, mu.points):
        out += w * aklt.bond_test_projector(b, r)
    return out


def site_rotations(h, seed: int) -> dict[int, np.ndarray]:
    """A random real orthogonal matrix per node of h, drawn from seed."""
    rng = np.random.default_rng(seed)
    return {v: np.linalg.qr(rng.standard_normal((d, d)))[0] for v, d in h.node_dims.items()}


def basis_rotated(h, seed: int):
    """h with every projector conjugated by the site rotations of seed: the
    same spectrum, but no projector commutes with the total spin, so every
    solve of the copy stays in the full space."""
    rotations = site_rotations(h, seed)
    projectors = {}
    for e, p in h.projectors.items():
        u = functools.reduce(np.kron, [rotations[v] for v in e])
        projectors[e] = u @ p @ u.T
    return type(h)(h.graph, projectors, h.node_dims)


def rotate(h, rotations, vecs: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The columns of vecs under the tensor product of the site rotations (or
    their transposes), one tensordot per node."""
    shape = [h.node_dims[v] for v in h.node_order]
    t = vecs.reshape(shape + [-1])
    for axis, v in enumerate(h.node_order):
        u = rotations[v].T if inverse else rotations[v]
        t = np.moveaxis(np.tensordot(u, t, axes=(1, axis)), 0, axis)
    return t.reshape(vecs.shape)


def spin_along(twice_s: int, direction) -> np.ndarray:
    """The spin component r . S along a unit direction r."""
    sx, sy, sz = linalg.spin_operators(twice_s)
    return direction[0] * sx + direction[1] * sy + direction[2] * sz


def coherent_extremes(twice_s: int, direction) -> tuple[np.ndarray, np.ndarray]:
    """The +S and -S eigenvectors of the spin component along direction, by
    eigh."""
    _, vecs = scipy.linalg.eigh(spin_along(twice_s, direction))
    return vecs[:, -1], vecs[:, 0]
