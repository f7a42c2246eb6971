"""Dense full-space oracles for the tests.

The package computes every quantity matrix-free; each has one dense
counterpart here: H and its ground projector, products of embedded local
operators (test operators, bond-test products), Omega, nu from dense Omega
and Q0, the density matrix of a prepared state, and the two reference forms
of the bond overlap trace.  They are built on `linalg.embed` and
numpy/scipy only, so they stay independent of the apply plans and Lanczos
solves they check.  Keeping the dimension small is the caller's job.
"""

import math

import numpy as np
import scipy.linalg

from ffverify import aklt, linalg
from ffverify.errors import InputError
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


def density_matrix(state) -> np.ndarray:
    """sum_i w_i |v_i><v_i| + white * I/dim of a PreparedState."""
    out = np.eye(state.dim, dtype=complex) * (state.white / state.dim)
    for w, v in state.ensemble:
        out += w * np.outer(v, v.conj())
    return out


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
