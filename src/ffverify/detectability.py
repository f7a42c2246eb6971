"""Numeric checkers for the product-norm bounds of frustration-free
Hamiltonians and the projector inequalities behind them.

Every check returns measured values plus a pass flag instead of asserting,
so callers can tabulate margins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import InputError
from .graph import Edge
from .hamiltonian import (CommutationStructure, FFHamiltonian, commutation_structure,
                          ground_space, spectral_gap_gamma)
from .tolerances import BOUND_CHECK_TOL, PROJECTOR_INEQ_TOL


def _bound_chain(energy: float, structure: CommutationStructure) -> tuple[float, ...]:
    """The profile's chain (zeta, s^2 g~, s^2 g^2, g^2), each term mapped
    through x -> x / (energy + x)."""
    return tuple(x / (energy + x) if energy + x > 0 else 0.0 for x in structure.chain)


def _chain_holds(first: float, bounds: tuple[float, ...]) -> bool:
    """Whether first <= bounds[0] <= bounds[1] <= ..., each up to BOUND_CHECK_TOL."""
    chain = (first,) + bounds
    return all(a <= b + BOUND_CHECK_TOL for a, b in zip(chain, chain[1:]))


@dataclass(frozen=True)
class DLReport:
    """Measured product norm squared against its four upper bounds."""

    measured: float
    bounds: tuple[float, float, float, float]
    ordering: tuple[Edge, ...]
    gamma: float

    @property
    def passed(self) -> bool:
        return _chain_holds(self.measured, self.bounds)


def _complement_product(h: FFHamiltonian, edges: Sequence[Edge],
                        vec: np.ndarray) -> np.ndarray:
    """(1 - P_{e_k}) ... (1 - P_{e_1}) vec for edges e_1, ..., e_k."""
    for e in edges:
        vec = vec - h.apply_edge(e, vec)
    return vec


def _product_norm_sq(h: FFHamiltonian, ordering: Sequence[Edge]) -> float:
    """||(1 - Q0) (1-P_1)...(1-P_q) (1 - Q0)||^2, in H's solve space.

    Q0 commutes with every projector and is idempotent, so the product is
    M = (1-P_1)...(1-P_q)(1 - Q0), and one apply of M^dagger M deflates twice:
    once in M and once in M^dagger = (1 - Q0)(1-P_q)...(1-P_1).  When every
    P_e is SU(2)-invariant the product is too, so its norm is reached in H's
    sector, with Q0 the projector onto H's kernel there.
    """
    kernel, _ = h._low_spectrum

    def apply_m(v):
        return _complement_product(h, reversed(ordering), linalg.deflate(kernel, v))

    def apply_m_adjoint(v):
        return linalg.deflate(kernel, _complement_product(h, ordering, v))

    norm = linalg.product_operator_norm(apply_m, apply_m_adjoint, len(kernel))
    return norm * norm


def dl_norm_check(h: FFHamiltonian, ordering: Sequence[Edge] | None = None) -> DLReport:
    """Product-norm bound check for a frustration-free Hamiltonian."""
    structure = commutation_structure(h, ordering)
    gamma = spectral_gap_gamma(h)
    measured = _product_norm_sq(h, structure.ordering)
    bounds = _bound_chain(gamma, structure)
    return DLReport(measured=measured, bounds=bounds,
                    ordering=structure.ordering, gamma=float(gamma))


@dataclass(frozen=True)
class StateCheck:
    """Product applied to a single excited state against the same bounds."""

    phi_norm_sq: float
    energy: float | None   # None when the product annihilates the state
    bounds: tuple[float, float, float, float]
    ordering: tuple[Edge, ...]

    @property
    def passed(self) -> bool:
        if self.energy is None:
            return True  # vacuous: phi = 0
        return _chain_holds(self.phi_norm_sq, self.bounds)


def dl_state_check(h: FFHamiltonian, ordering: Sequence[Edge] | None,
                   psi: np.ndarray) -> StateCheck:
    """Apply (1-P_1)...(1-P_q) to a normalized state orthogonal to the ground
    space and compare the surviving weight with the energy-resolved bounds."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (h.dim,):
        raise InputError(f"state of shape {psi.shape}: expected ({h.dim},)")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise InputError("state must be normalized")
    structure = commutation_structure(h, ordering)
    _, basis = ground_space(h)
    overlap = float(np.linalg.norm(basis.conj().T @ psi) ** 2)
    if overlap >= 1e-10:
        raise InputError(f"state has ground-space weight {overlap:.2e}")
    phi = _complement_product(h, reversed(structure.ordering), psi)
    norm_sq = float(np.real(np.vdot(phi, phi)))
    if norm_sq <= 1e-24:
        return StateCheck(phi_norm_sq=0.0, energy=None,
                          bounds=(0.0, 0.0, 0.0, 0.0), ordering=structure.ordering)
    energy = float(np.real(np.vdot(phi, h.apply(phi))) / norm_sq)
    bounds = _bound_chain(energy, structure)
    return StateCheck(phi_norm_sq=norm_sq, energy=energy, bounds=bounds,
                      ordering=structure.ordering)


@dataclass(frozen=True)
class PairCheck:
    """Two-projector inequality ||P(1-Q)v|| <= ||Pv|| + s ||Qv||."""

    lhs: float
    rhs: float
    s: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + PROJECTOR_INEQ_TOL


def _require_projector(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not linalg.is_projector(m):
        raise InputError(f"{name} is not a projector")
    return m


def _require_same_shape(named: dict[str, np.ndarray]) -> None:
    """Refuse arrays whose shapes differ, naming each shape."""
    if len({a.shape for a in named.values()}) > 1:
        shapes = ", ".join(f"{name} {a.shape}" for name, a in named.items())
        raise InputError(f"shapes do not match: {shapes}")


def projector_pair_check(p: np.ndarray, q: np.ndarray, psi: np.ndarray) -> PairCheck:
    """Check the two-projector inequality on one vector.

    s is the largest singular value of PQ strictly below 1 (0 if all equal 1).
    """
    p = _require_projector(p, "P")
    q = _require_projector(q, "Q")
    psi = np.asarray(psi, dtype=complex)
    _require_same_shape({"P": p, "Q": q})
    if psi.shape != p.shape[:1]:
        raise InputError(f"state of shape {psi.shape}: expected ({len(p)},)")
    s = linalg.largest_nonunit_singular_value(p @ q)
    lhs = float(np.linalg.norm(p @ (psi - q @ psi)))
    rhs = float(np.linalg.norm(p @ psi) + s * np.linalg.norm(q @ psi))
    return PairCheck(lhs=lhs, rhs=rhs, s=s)


@dataclass(frozen=True)
class UnionGapCheck:
    """Gap of the projector average against the product-norm lower bound."""

    gap: float              # 1 - ||mean of projectors||
    rhs: float              # (1 - ||product||) / (m (1 + ||product||))
    product_norm: float
    m: int

    @property
    def passed(self) -> bool:
        ok = self.gap >= self.rhs - PROJECTOR_INEQ_TOL
        if self.m == 2:
            ok = ok and abs(self.gap - (1.0 - self.product_norm) / 2.0) <= PROJECTOR_INEQ_TOL
        return ok


def union_gap_check(projectors: Sequence[np.ndarray]) -> UnionGapCheck:
    """1 - ||(P_1 + ... + P_m)/m|| >= (1 - ||P_1...P_m||)/(m(1 + ||P_1...P_m||));
    equality replaces the bound at m = 2."""
    if len(projectors) < 2:
        raise InputError("need at least two projectors")
    named = {f"P_{i + 1}": _require_projector(p, f"P_{i + 1}") for i, p in enumerate(projectors)}
    _require_same_shape(named)
    ps = list(named.values())
    m = len(ps)
    mean = sum(ps) / m
    prod = ps[0]
    for p in ps[1:]:
        prod = prod @ p
    # the mean is Hermitian (exactly, when every P_i is), so its norm is its
    # largest eigenvalue in absolute value
    gap = 1.0 - float(np.abs(np.linalg.eigvalsh(mean)).max())
    product_norm = linalg.operator_norm(prod)
    rhs = (1.0 - product_norm) / (m * (1.0 + product_norm))
    return UnionGapCheck(gap=gap, rhs=rhs, product_norm=product_norm, m=m)


def random_projector(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Haar-random rank-`rank` projector, for invariant sweeps."""
    if not 0 <= rank <= dim:
        raise InputError("rank out of range")
    if rank == 0:
        return np.zeros((dim, dim), dtype=complex)
    raw = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(raw)
    p = q @ q.conj().T
    return (p + p.conj().T) / 2
