"""Spin-coherent states, AKLT Hamiltonians, spin-measurement bond tests,
and spherical designs (the spin operators live in `linalg`).

Each graph vertex j carries spin deg(j)/2; each edge gets the projector onto
the maximal total-spin subspace of its two nodes.  Bond tests measure both
spins along a common direction and fail only on aligned extremal outcomes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import InputError, InvariantViolation
from .graph import Hypergraph, Edge, degree
from .hamiltonian import FFHamiltonian
from .tolerances import DESIGN_TOL, PROB_SUM_TOL, SPIN_CLUSTER_TOL, UNIT_VECTOR_TOL

# design_order checks frame potentials up to this order
MAX_DESIGN_ORDER = 20


def coherent_extremes(twice_s: int, direction) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of the spin component along `direction` with eigenvalues
    +S and -S, phase fixed by making the largest amplitude real positive.

    `direction` is one unit 3-vector, or an (n, 3) block of them; a block
    gives (n, 2S + 1) arrays whose row i belongs to direction i, and one
    direction is its n = 1 row.  Closed form of the spin-coherent state along
    (theta, phi): amplitudes sqrt(C(2S, S+m)) cos^(S+m)(theta/2)
    sin^(S-m)(theta/2) e^(-i m phi) for m = S, ..., -S; the -S eigenvector is
    the +S one along -direction (theta -> pi - theta, phi -> phi + pi), up to
    a global phase."""
    if twice_s < 1:
        raise InputError("spin must be at least 1/2")
    r = np.asarray(direction, dtype=float)
    if r.ndim not in (1, 2) or r.shape[-1:] != (3,) or r.size == 0:
        raise InputError("direction must be a unit 3-vector or an (n, 3) block of them")
    rows = r.reshape(-1, 3)
    if not np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= UNIT_VECTOR_TOL:
        raise InputError("every direction must be a unit 3-vector")
    x, y, z = rows.T[:, :, None]
    theta = np.arctan2(np.hypot(x, y), z)
    phi = np.arctan2(y, x)
    up = np.arange(twice_s, -1, -1)     # S + m for m = S, ..., -S
    root = np.sqrt([math.comb(twice_s, k) for k in up])
    phase = np.exp(-1j * (up - twice_s / 2) * phi)
    c, s = np.cos(theta / 2), np.sin(theta / 2)

    def fix_phase(v):
        pivot = np.take_along_axis(v, np.argmax(np.abs(v), axis=1)[:, None], axis=1)
        return v * (np.abs(pivot) / pivot)

    plus = fix_phase(root * c ** up * s ** (twice_s - up) * phase)
    minus = fix_phase(root * s ** up * c ** (twice_s - up) * phase * (-1.0) ** (twice_s - up))
    return (plus, minus) if r.ndim == 2 else (plus[0], minus[0])


@lru_cache(maxsize=None)
def coupled_spin_projector(twice_sj: int, twice_sk: int) -> np.ndarray:
    """Projector onto the maximal total-spin subspace of two coupled spins.

    Built from the eigendecomposition of (S_j + S_k)^2 with eigenvalue
    clustering, avoiding explicit recoupling tables.
    """
    dims = (twice_sj + 1, twice_sk + 1)
    total = sum(t @ t for t in (linalg._total_spin(dims, c) for c in range(3)))
    s_e = (twice_sj + twice_sk) / 2
    target = s_e * (s_e + 1)
    vals, vecs = linalg.eigh(total)
    mask = np.abs(vals - target) < SPIN_CLUSTER_TOL
    rank = int(np.sum(mask))
    if rank != twice_sj + twice_sk + 1:
        raise InvariantViolation(
            f"top spin sector has rank {rank}, expected {twice_sj + twice_sk + 1}")
    v = vecs[:, mask]
    p = v @ v.conj().T
    p = (p + p.conj().T) / 2
    p.setflags(write=False)
    return p


@dataclass(frozen=True)
class Bond:
    """An edge of an AKLT Hamiltonian together with its two node spins."""

    edge: Edge
    twice_sj: int
    twice_sk: int

    @property
    def twice_se(self) -> int:
        return self.twice_sj + self.twice_sk

    @property
    def dim(self) -> int:
        return (self.twice_sj + 1) * (self.twice_sk + 1)

    @property
    def top_projector(self) -> np.ndarray:
        return coupled_spin_projector(self.twice_sj, self.twice_sk)

    @property
    def ground_projector(self) -> np.ndarray:
        return np.eye(self.dim) - self.top_projector


def aklt_hamiltonian(g: Hypergraph) -> FFHamiltonian:
    """AKLT Hamiltonian of a loopless simple graph: spin deg(j)/2 per node,
    maximal total-spin projector per edge."""
    if not g.edges:
        raise InputError("graph has no edges")
    if not g.is_simple_graph():
        raise InputError("AKLT construction needs a loopless simple graph")
    dims = {}
    for v in g.vertices:
        d = degree(g, v)
        if d < 1:
            raise InputError(f"vertex {v} is isolated")
        dims[v] = d + 1  # 2S_j + 1 with S_j = deg(j)/2
    projectors = {(j, k): coupled_spin_projector(dims[j] - 1, dims[k] - 1)
                  for j, k in g.edges}
    return FFHamiltonian(g, projectors, dims)


def bond(h: FFHamiltonian, e) -> Bond:
    """Bond view of an edge of an AKLT-style Hamiltonian."""
    e = tuple(sorted(int(v) for v in e))
    if e not in h.projectors:
        raise InputError(f"{e} is not an edge of the Hamiltonian")
    if len(e) != 2:
        raise InputError(f"{e} is not a bond: a bond joins two nodes")
    j, k = e
    return Bond(e, h.node_dims[j] - 1, h.node_dims[k] - 1)


def _aligned_extremes(b: Bond, directions) -> tuple[np.ndarray, np.ndarray]:
    """|++> and |--> along each direction: the two product states a bond test
    fails on, with the shape rule of `coherent_extremes`."""
    plus_j, minus_j = coherent_extremes(b.twice_sj, directions)
    plus_k, minus_k = coherent_extremes(b.twice_sk, directions)
    lead = plus_j.shape[:-1]
    return ((plus_j[..., :, None] * plus_k[..., None, :]).reshape(lead + (b.dim,)),
            (minus_j[..., :, None] * minus_k[..., None, :]).reshape(lead + (b.dim,)))


def bond_test_projector(b: Bond, direction) -> np.ndarray:
    """Two-outcome spin test along a direction: fail on aligned extremal
    outcomes; identical for antipodal directions.  An (n, 3) block of
    directions gives the n tests as an (n, d_e, d_e) array."""
    both_plus, both_minus = _aligned_extremes(b, direction)
    return (np.eye(b.dim)
            - both_plus[..., :, None] * both_plus[..., None, :].conj()
            - both_minus[..., :, None] * both_minus[..., None, :].conj())


@dataclass(frozen=True, eq=False)
class DirectionDistribution:
    """Finitely supported probability measure on the unit sphere."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise InputError("points must be a nonempty (n, 3) array")
        if not np.isfinite(pts).all():
            raise InputError("points must be finite")
        norms = np.linalg.norm(pts, axis=1)
        if np.max(np.abs(norms - 1.0)) > UNIT_VECTOR_TOL:
            raise InputError("all points must lie on the unit sphere")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(pts),) or np.any(w < 0):
            raise InputError("weights must be nonnegative, one per point")
        if not np.isfinite(w).all():
            raise InputError("weights must be finite")
        if abs(w.sum() - 1.0) > PROB_SUM_TOL:
            raise InputError(f"weights sum to {w.sum()}, expected 1")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.weights)

    @classmethod
    def uniform(cls, points) -> "DirectionDistribution":
        points = np.asarray(points, dtype=float)
        # one weight per row; no rows (or no array) is left to __post_init__
        weights = np.ones(points.shape[:1])
        return cls(points, weights / weights.size)

    @classmethod
    def from_json(cls, text: str) -> "DirectionDistribution":
        try:
            data = json.loads(text)
            pts = np.asarray(data["points"], dtype=float)
            w = data.get("weights")
            w = None if w is None else np.asarray(w, dtype=float)
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise InputError(f"malformed design JSON: {exc}") from exc
        if w is None:
            return cls.uniform(pts)
        return cls(pts, w)

    @classmethod
    def from_file(cls, path) -> "DirectionDistribution":
        with open(path) as fh:
            text = fh.read()
        try:
            return cls.from_json(text)
        except InputError as exc:
            raise InputError(f"design file {path}: {exc}") from exc


def symmetrize(mu: DirectionDistribution) -> DirectionDistribution:
    """Average of the distribution and its center inversion."""
    points = np.concatenate([mu.points, -mu.points])
    weights = np.concatenate([mu.weights, mu.weights]) / 2.0
    return DirectionDistribution(points, weights)


def frame_potential(mu: DirectionDistribution, t: int) -> float:
    """Sum_ij w_i w_j (r_i . r_j)^t."""
    if t < 0 or int(t) != t:
        raise InputError("frame potential order must be a nonnegative integer")
    dots = mu.points @ mu.points.T
    return float(mu.weights @ (dots ** int(t)) @ mu.weights)


def _misses_moment(sym: DirectionDistribution, k: int) -> bool:
    """Whether the symmetrized distribution sym misses the spherical frame
    potential F_k = 1/(k+1) of an even order k."""
    return abs(frame_potential(sym, k) - 1.0 / (k + 1)) > DESIGN_TOL


def is_design(mu: DirectionDistribution, t: int) -> bool:
    """Whether the symmetrized distribution is a spherical t-design.

    Checked via the even frame potentials F_k = 1/(k+1) for k <= t; odd
    moments of the symmetrized distribution vanish identically.
    """
    sym = symmetrize(mu)
    return not any(_misses_moment(sym, k) for k in range(2, int(t) + 1, 2))


def design_order(mu: DirectionDistribution) -> int:
    """Largest t <= MAX_DESIGN_ORDER for which the symmetrized distribution is
    a t-design."""
    sym = symmetrize(mu)
    k = 2  # the first even order the distribution misses
    while k <= MAX_DESIGN_ORDER and not _misses_moment(sym, k):
        k += 2
    return min(k - 1, MAX_DESIGN_ORDER)


_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _cyclic(coords):
    x, y, z = coords
    return [(x, y, z), (z, x, y), (y, z, x)]


def _catalog_points(name: str) -> np.ndarray:
    if name == "tetrahedron":
        pts = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    elif name == "octahedron":
        pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    elif name == "cube":
        pts = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    elif name == "icosahedron":
        pts = []
        for s1 in (1, -1):
            for s2 in (1, -1):
                pts.extend(_cyclic((0.0, s1 * 1.0, s2 * _PHI)))
    elif name == "dodecahedron":
        pts = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
        for s1 in (1, -1):
            for s2 in (1, -1):
                pts.extend(_cyclic((0.0, s1 / _PHI, s2 * _PHI)))
    else:
        raise InputError(f"unknown design name {name!r}")
    arr = np.asarray(pts, dtype=float)
    return arr / np.linalg.norm(arr, axis=1)[:, None]


#: design order t of each catalog entry
CATALOG_ORDERS = {"tetrahedron": 2, "octahedron": 3, "cube": 3,
                  "icosahedron": 5, "dodecahedron": 5}


def design_catalog(name: str) -> DirectionDistribution:
    """Uniform distribution on the vertices of a platonic solid."""
    return DirectionDistribution.uniform(_catalog_points(name))


@dataclass(frozen=True, eq=False)
class BondOperator:
    """Average of bond tests for one edge; None distribution means isotropic."""

    bond: Bond
    matrix: np.ndarray
    distribution: DirectionDistribution | None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.bond.dim,) * 2:
            raise InputError("bond operator has the wrong dimension")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def edge(self) -> Edge:
        return self.bond.edge

    @property
    def gap(self) -> float:
        """nu_e = 1 - ||Omega_e - Q_e||."""
        return 1.0 - linalg.operator_norm(self.matrix - self.bond.ground_projector)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


def bond_operator(b: Bond, mu: DirectionDistribution) -> BondOperator:
    """Weighted average of the bond tests drawn from mu,
    I - sum_n w_n (|++><++| + |--><--|) along direction n, as one weighted
    Gram product of the stacked aligned extremes."""
    stacked = np.concatenate(_aligned_extremes(b, mu.points))
    weights = np.concatenate([mu.weights, mu.weights])
    omega = np.eye(b.dim) - (stacked.T * weights) @ stacked.conj()
    return BondOperator(b, omega, mu)


def isotropic_bond_operator(b: Bond) -> BondOperator:
    """Closed form of the direction-averaged bond operator:
    Q_e + (2S_e - 1)/(2S_e + 1) P_e, with gap 2/(2S_e + 1)."""
    t = b.twice_se
    omega = b.ground_projector + ((t - 1) / (t + 1)) * b.top_projector
    return BondOperator(b, omega, None)


def isotropic_gap(twice_se: int) -> float:
    return 2.0 / (twice_se + 1)


def overlap_trace(twice_se: int, c: float) -> float:
    """tr[(R_r - Q_e)(R_s - Q_e)] as a function of cos angle c = r.s:
    2S_e - 3 + 2((1+c)/2)^(2S_e) + 2((1-c)/2)^(2S_e)."""
    if not -1.0 <= c <= 1.0:
        raise InputError("cosine must lie in [-1, 1]")
    t = twice_se
    return t - 3 + 2 * ((1 + c) / 2) ** t + 2 * ((1 - c) / 2) ** t


def trace_floor(twice_se: int) -> float:
    """Lower bound on tr(Omega_e - Q_e)^2: (2S_e - 1)^2 / (2S_e + 1)."""
    t = twice_se
    return (t - 1) ** 2 / (t + 1)


@dataclass(frozen=True)
class BondDesignReport:
    """Equivalence suite for one bond operator built from a distribution.

    The four statements (maximal gap, exact closed form, homogeneity, and the
    symmetrized distribution being a 2S_e-design) hold or fail together.
    """

    twice_se: int
    gap: float
    gap_is_maximal: bool
    matches_closed_form: bool
    is_homogeneous: bool
    is_design: bool
    trace_sq: float
    floor: float
    statements_agree: bool
    floor_holds: bool

    @property
    def passed(self) -> bool:
        return self.statements_agree and self.floor_holds


def bond_design_report(b: Bond, mu: DirectionDistribution) -> BondDesignReport:
    """Evaluate the four equivalent optimality statements plus the trace floor,
    each to DESIGN_TOL."""
    op = bond_operator(b, mu)
    t = b.twice_se
    gap = op.gap
    gap_max = abs(gap - isotropic_gap(t)) < DESIGN_TOL

    p = b.top_projector
    q = b.ground_projector
    closed = isotropic_bond_operator(b).matrix
    matches = linalg.norm_below(op.matrix - closed, DESIGN_TOL)

    # best homogeneous fit: lambda = tr[(Omega - Q) P] / tr P
    o = op.matrix - q
    lam = float(np.real(np.trace(o @ p))) / float(np.real(np.trace(p)))
    homogeneous = linalg.norm_below(op.matrix - q - lam * p, DESIGN_TOL)

    design = is_design(mu, t)
    trace_sq = float(np.real(np.trace(o @ o)))
    floor = trace_floor(t)

    flags = (gap_max, matches, homogeneous, design)
    return BondDesignReport(
        twice_se=t, gap=gap, gap_is_maximal=gap_max, matches_closed_form=matches,
        is_homogeneous=homogeneous, is_design=design, trace_sq=trace_sq,
        floor=floor, statements_agree=all(flags) or not any(flags),
        floor_holds=trace_sq >= floor - DESIGN_TOL)
