"""Frustration-free Hamiltonians built from local projectors on a hypergraph.

Provides the ground space, the spectral gap, the commutation profile
(g, s, zeta, g~) that feeds every norm bound downstream, the edge ordering
that minimizes zeta, and random frustration-free test instances.

H's projectors are a `linalg.LocalOperators`, which decides H's solve space:
the lowest total-S_z sector when every projector is SU(2)-invariant (every
AKLT Hamiltonian), else the full space.  The one cached solve stays there;
gamma and the detectability product (`detectability.dl_norm_check`) read its
kernel, and only `ground_space` rebuilds the full ground basis from it, on
first call (`linalg.Sector.multiplets`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import DegenerateSpectrum, InputError, InvariantViolation, NotFrustrationFree
from .graph import Edge, Hypergraph
from .tolerances import COMMUTE_TOL, GROUND_TOL, check_dim

# best_zeta_ordering tries every permutation up to this many edges
EXHAUSTIVE_ORDERING_EDGES = 7


@dataclass(frozen=True, eq=False)
class FFHamiltonian:
    """Sum of local projectors, one per hyperedge, sharing a null vector.

    `projectors` maps each edge to its projector's matrix, whose tensor
    factors follow the edge's ascending node order; each is stored as a
    read-only complex copy.
    """

    graph: Hypergraph
    projectors: dict[Edge, np.ndarray]
    node_dims: dict[int, int]

    def __post_init__(self):
        dims = {int(k): int(v) for k, v in self.node_dims.items()}
        missing = [v for v in self.graph.vertices if v not in dims]
        if missing:
            raise InputError(f"no dimension for nodes {missing}")
        extra = set(self.projectors) - set(self.graph.edges)
        if extra:
            raise InputError(f"projectors for unknown edges {sorted(extra)}")
        projs = {}
        for e in self.graph.edges:
            if e not in self.projectors:
                raise InputError(f"no projector for edge {e}")
            p = np.array(self.projectors[e], dtype=complex)
            d_e = math.prod(dims[v] for v in e)
            if p.shape != (d_e, d_e):
                raise InputError(f"projector on {e} has shape {p.shape}, not ({d_e}, {d_e})")
            if not linalg.is_projector(p):
                raise InputError(f"operator on {e} is not a projector")
            p.setflags(write=False)
            projs[e] = p
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "node_dims", dims)

    @property
    def node_order(self) -> tuple[int, ...]:
        return self.graph.vertices

    @property
    def dim(self) -> int:
        return self.local.dim

    @cached_property
    def local(self) -> linalg.LocalOperators:
        """The projectors as local operators: their plans, dtype and solve space."""
        return linalg.LocalOperators(self.projectors, self.node_order, self.node_dims)

    def apply_edge(self, e: Edge, vec: np.ndarray) -> np.ndarray:
        """P_e |vec> on a full-space vector or, when H has a sector, a sector
        vector."""
        return self.local.plans(vec)[e](vec)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H |vec> as a sum of local applications, on a full-space vector or,
        when H has a sector, a sector vector."""
        plans = self.local.plans(vec)
        out = np.zeros(vec.shape, dtype=np.result_type(self.local.dtype, vec.dtype))
        for plan in plans.values():
            out += plan(vec)
        return out

    @cached_property
    def _low_spectrum(self) -> tuple[np.ndarray, float | None]:
        """H's kernel in its solve space (orthonormal columns) and gamma, the
        smallest eigenvalue above the cluster below GROUND_TOL, from one
        `linalg.lowest_eigenpairs` solve there.  Every multiplet has a member
        in the sector, so gamma is exact.  gamma is None when the cluster
        fills the space, as for H = 0 (no edges, or every projector zero)."""
        check_dim(self.dim, "low-spectrum solve")
        sector = self.local.sector
        n = self.dim if sector is None else sector.dim
        if not any(p.any() for p in self.projectors.values()):
            return np.eye(n), None
        vals, vecs = linalg.lowest_eigenpairs(self.apply, n, below=GROUND_TOL)
        if vals[0] >= GROUND_TOL:
            raise NotFrustrationFree(
                f"smallest eigenvalue {vals[0]:.3e} is above tolerance {GROUND_TOL}")
        rank = int(np.sum(vals < GROUND_TOL))
        return vecs[:, :rank], float(vals[rank]) if rank < len(vals) else None

    @cached_property
    def _ground_basis(self) -> np.ndarray:
        """The full ground basis: the kernel, or the multiplets through a
        sector kernel (the whole space when it fills the sector)."""
        kernel, gamma = self._low_spectrum
        sector = self.local.sector
        if sector is None:
            return kernel
        return np.eye(self.dim) if gamma is None else sector.multiplets(kernel)

    @cached_property
    def _pair_data(self) -> tuple[dict, dict]:
        """Nonunit singular values and noncommuting partners for all adjacent
        pairs, from both projectors embedded in their joint support.

        Two pairs alike up to node labels (equal projectors, equal node
        dimensions on the joint support, and each edge's nodes at the same
        places in it) embed to the same matrices, so each such class is
        computed once."""
        edges, incident, dims = self.graph.edges, self.graph.incident, self.node_dims
        position = {e: i for i, e in enumerate(edges)}
        kinds: dict[bytes, int] = {}
        kind = {e: kinds.setdefault(p.tobytes(), len(kinds)) for e, p in self.projectors.items()}
        classes: dict[tuple, tuple[bool, float]] = {}
        pair_s: dict[frozenset, float] = {}
        noncomm: dict[Edge, list[Edge]] = {e: [] for e in edges}
        # pairs sharing a node, in `itertools.combinations(edges, 2)` order;
        # disjoint supports commute exactly
        for i, e in enumerate(edges):
            later = {f for v in e for f in incident[v] if position[f] > i}
            for f in sorted(later, key=position.__getitem__):
                nodes = tuple(sorted(set(e) | set(f)))
                key = (kind[e], kind[f], tuple(dims[v] for v in nodes),
                       tuple(map(nodes.index, e)), tuple(map(nodes.index, f)))
                if key not in classes:
                    a = linalg.embed(self.projectors[e], e, nodes, dims)
                    b = linalg.embed(self.projectors[f], f, nodes, dims)
                    ab = a @ b
                    classes[key] = (not linalg.norm_below(ab - b @ a, COMMUTE_TOL),
                                    linalg.largest_nonunit_singular_value(ab))
                noncommuting, pair_s[frozenset((e, f))] = classes[key]
                if noncommuting:
                    noncomm[e].append(f)
                    noncomm[f].append(e)
        return pair_s, noncomm


def ground_space(h: FFHamiltonian) -> tuple[int, np.ndarray]:
    """Rank and orthonormal basis (dim x rank) of the zero-energy eigenspace,
    from H's one cached solve."""
    basis = h._ground_basis
    return basis.shape[1], basis


def spectral_gap_gamma(h: FFHamiltonian) -> float:
    """Smallest eigenvalue of H above the ground cluster."""
    _, gamma = h._low_spectrum
    if gamma is None:
        raise DegenerateSpectrum("no spectral gap: all eigenvalues sit in the ground cluster")
    return gamma


@dataclass(frozen=True, eq=False)
class CommutationStructure:
    """Edge-pair commutation data: g, s, and the ordering-dependent zeta, g~."""

    g: int
    s: float
    g_tilde: int
    zeta: float
    ordering: tuple[Edge, ...]

    def __post_init__(self):
        chain = self.chain
        if any(lo > hi + 1e-12 for lo, hi in zip(chain, chain[1:])):
            raise InvariantViolation(f"profile chain violated: {chain}")

    @property
    def chain(self) -> tuple[float, float, float, float]:
        """(zeta, s^2 g~, s^2 g^2, g^2), nondecreasing under every ordering."""
        s, g = self.s, self.g
        return (self.zeta, s * s * self.g_tilde, s * s * g * g, float(g * g))


def commutation_structure(h: FFHamiltonian,
                          ordering: Sequence[Edge] | None = None) -> CommutationStructure:
    """Pairwise projector data on joint supports; no diagonalization of H.

    s is the largest singular value of P_j P_k strictly below 1 - UNIT_SV_TOL
    over noncommuting pairs (commuting pairs only carry {0, 1} singular values,
    so including them changes nothing).
    """
    edges = h.graph.edges
    if ordering is None:
        ordering = edges
    ordering = tuple(tuple(sorted(e)) for e in ordering)
    if sorted(ordering) != sorted(edges):
        raise InputError("ordering must be a permutation of the edge set")

    pair_s, noncomm = h._pair_data
    g = max((len(v) for v in noncomm.values()), default=0)
    s = max((pair_s[frozenset((e, f))] for e, fs in noncomm.items() for f in fs),
            default=0.0)

    index = {e: i for i, e in enumerate(ordering)}
    # g_k = |A_k|, A_k = the noncommuting partners of edge k earlier in the ordering
    g_k = {k: sum(index[j] < index[k] for j in noncomm[k]) for k in ordering}
    zeta = 0.0
    g_tilde = 0
    for j in ordering:
        # the edges k whose A_k holds j, in the ordering's order
        later = sorted((k for k in noncomm[j] if index[k] > index[j]), key=index.get)
        zeta = max(zeta, sum(g_k[k] * pair_s[frozenset((j, k))] ** 2 for k in later))
        g_tilde = max(g_tilde, sum(g_k[k] for k in later))
    return CommutationStructure(g=g, s=s, g_tilde=g_tilde, zeta=zeta, ordering=ordering)


def best_zeta_ordering(h: FFHamiltonian) -> tuple[tuple[Edge, ...], float]:
    """Edge ordering minimizing zeta: exhaustive up to EXHAUSTIVE_ORDERING_EDGES
    edges; above, the graph's edge order, as `commutation_structure(h)` uses."""
    edges = h.graph.edges
    if len(edges) > EXHAUSTIVE_ORDERING_EDGES:
        return edges, commutation_structure(h).zeta

    def zeta_of(ordering):
        return commutation_structure(h, ordering).zeta

    best = min(itertools.permutations(edges), key=zeta_of)
    return tuple(best), zeta_of(best)


def random_ff_instance(seed: int, nodes: Sequence[int], dims: Sequence[int],
                       edges: Iterable[Iterable[int]], ground_rank: int) -> FFHamiltonian:
    """Random frustration-free instance with a planted shared null space.

    `dims` gives one local dimension per node, in the order of `nodes`.
    Draws a Haar-random `ground_rank`-dimensional subspace, then for each edge
    a random local projector annihilating it.  The actual zero-energy space may
    exceed the planted one; the frustration-free property always holds.
    """
    nodes = tuple(int(v) for v in nodes)
    if len(dims) != len(nodes):
        raise InputError(f"{len(dims)} dimensions given for {len(nodes)} nodes")
    dims = {v: int(d) for v, d in zip(nodes, dims)}
    g = Hypergraph(nodes, tuple(tuple(e) for e in edges))
    total = math.prod(dims[v] for v in g.vertices)
    if not 1 <= ground_rank <= total:
        raise InputError(f"ground rank {ground_rank} infeasible in dimension {total}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((total, ground_rank)) + 1j * rng.standard_normal((total, ground_rank))
    basis, _ = np.linalg.qr(raw)

    order = g.vertices
    vectors = basis.T.reshape((ground_rank,) + tuple(dims[v] for v in order))
    projectors = {}
    for e in g.edges:
        axes = [order.index(v) + 1 for v in e]
        d_e = math.prod(dims[v] for v in e)
        # columns of the reshaped ground basis span the edge-local subspace the
        # projector must annihilate: vector i's columns are w's i-th block
        w = np.moveaxis(vectors, axes, range(len(axes))).reshape(d_e, -1)
        u, sv, _ = np.linalg.svd(w, full_matrices=True)
        keep = int(np.sum(sv > 1e-10))
        comp = u[:, keep:]  # orthonormal basis of the allowed subspace
        avail = comp.shape[1]
        if avail == 0:
            p = np.zeros((d_e, d_e), dtype=complex)
        else:
            r = int(rng.integers(1, avail + 1))
            mix = rng.standard_normal((avail, avail)) + 1j * rng.standard_normal((avail, avail))
            q, _ = np.linalg.qr(comp @ mix)
            v = q[:, :r]
            p = v @ v.conj().T
        projectors[e] = (p + p.conj().T) / 2
    return FFHamiltonian(g, projectors, dict(dims))
