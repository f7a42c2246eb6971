"""Frustration-free Hamiltonians built from local projectors on a hypergraph.

Provides the ground space, the spectral gap, and the commutation profile
(g, s, zeta, g~) that feeds every norm bound downstream.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import DegenerateSpectrum, InputError, NotFrustrationFree
from .graph import Edge, Hypergraph
from .linalg import ApplyPlan
from .tolerances import COMMUTE_TOL, GROUND_TOL, UNIT_SV_TOL, check_dim

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
        return math.prod(self.node_dims[v] for v in self.node_order)

    @cached_property
    def _plans(self) -> dict[Edge, ApplyPlan]:
        return {e: linalg.make_plan(p, e, self.node_order, self.node_dims)
                for e, p in self.projectors.items()}

    @cached_property
    def dtype(self) -> np.dtype:
        """float64 when every projector is real to REAL_TOL, else complex128."""
        return np.result_type(float, *{p.matrix.dtype for p in self._plans.values()})

    def apply_edge(self, e: Edge, vec: np.ndarray) -> np.ndarray:
        """P_e |vec> in the full space."""
        return self._plans[e](vec)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """H |vec> as a sum of local applications."""
        out = np.zeros(vec.shape, dtype=np.result_type(self.dtype, vec.dtype))
        for plan in self._plans.values():
            out += plan(vec)
        return out

    @cached_property
    def _low_spectrum(self) -> tuple[int, np.ndarray, float | None]:
        """The solve behind `low_spectrum`, run once per Hamiltonian."""
        d = self.dim
        check_dim(d, "low-spectrum solve")
        if not any(p.any() for p in self.projectors.values()):
            return d, np.eye(d), None
        vals, vecs = linalg.lowest_eigenpairs(self.apply, d, below=GROUND_TOL)
        if vals[0] >= GROUND_TOL:
            raise NotFrustrationFree(
                f"smallest eigenvalue {vals[0]:.3e} is above tolerance {GROUND_TOL}")
        rank = int(np.sum(vals < GROUND_TOL))
        gamma = float(vals[rank]) if rank < len(vals) else None
        return rank, vecs[:, :rank], gamma

    @cached_property
    def _pair_data(self) -> tuple[dict, dict]:
        """Nonunit singular values and commutation flags for all adjacent pairs."""
        edges = self.graph.edges
        pair_s: dict[frozenset, float] = {}
        noncomm: dict[Edge, list[Edge]] = {e: [] for e in edges}
        for e, f in itertools.combinations(edges, 2):
            if not set(e) & set(f):
                continue  # disjoint supports commute exactly
            a, b = _pair_space(self, e, f)
            if linalg.commutator_norm(a, b) > COMMUTE_TOL:
                noncomm[e].append(f)
                noncomm[f].append(e)
            svals = linalg.singular_values(a @ b)
            below = svals[svals < 1.0 - UNIT_SV_TOL]
            pair_s[frozenset((e, f))] = float(below[0]) if len(below) else 0.0
        return pair_s, noncomm


def low_spectrum(h: FFHamiltonian) -> tuple[int, np.ndarray, float | None]:
    """Ground rank, orthonormal ground basis (dim x rank) and gamma, the
    smallest eigenvalue above the ground cluster (eigenvalues below
    GROUND_TOL), from one cached solve.

    `linalg.lowest_eigenpairs` returns the cluster and the pair just above it;
    gamma is None when the cluster fills the whole space, as it does for
    H = 0 (no edges, or every projector zero).
    """
    return h._low_spectrum


def ground_space(h: FFHamiltonian) -> tuple[int, np.ndarray]:
    """Rank and orthonormal basis (dim x rank) of the zero-energy eigenspace."""
    rank, basis, _ = low_spectrum(h)
    return rank, basis


def spectral_gap_gamma(h: FFHamiltonian) -> float:
    """Smallest eigenvalue of H above the ground cluster."""
    _, _, gamma = low_spectrum(h)
    if gamma is None:
        raise DegenerateSpectrum("no spectral gap: all eigenvalues sit in the ground cluster")
    return gamma


def _pair_space(h: FFHamiltonian, e: Edge, f: Edge) -> tuple[np.ndarray, np.ndarray]:
    """Both projectors embedded in the joint support space (small and dense)."""
    nodes = tuple(sorted(set(e) | set(f)))
    return (linalg.embed(h.projectors[e], e, nodes, h.node_dims),
            linalg.embed(h.projectors[f], f, nodes, h.node_dims))


@dataclass(frozen=True, eq=False)
class CommutationStructure:
    """Edge-pair commutation data: g, s, and the ordering-dependent zeta, g~."""

    g: int
    s: float
    g_tilde: int
    zeta: float
    ordering: tuple[Edge, ...]
    pair_s: dict[frozenset, float]
    noncommuting: dict[Edge, tuple[Edge, ...]]

    def __post_init__(self):
        # zeta <= s^2 g~ <= s^2 g^2 <= g^2 holds under every ordering
        s2 = self.s ** 2
        chain = (self.zeta, s2 * self.g_tilde, s2 * self.g ** 2, float(self.g ** 2))
        if any(lo > hi + 1e-12 for lo, hi in zip(chain, chain[1:])):
            raise InputError(f"profile chain violated: {chain}")


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
    s = 0.0
    for e, fs in noncomm.items():
        for f in fs:
            s = max(s, pair_s[frozenset((e, f))])

    index = {e: i for i, e in enumerate(ordering)}
    nonset = {e: set(fs) for e, fs in noncomm.items()}
    # A_k = earlier noncommuting partners of edge k under the ordering
    a_sets = {k: [j for j in ordering if index[j] < index[k] and j in nonset[k]]
              for k in ordering}
    g_k = {k: len(a_sets[k]) for k in ordering}
    zeta = 0.0
    g_tilde = 0
    for j in ordering:
        later = [k for k in ordering if j in a_sets[k]]
        zeta_j = sum(g_k[k] * pair_s[frozenset((j, k))] ** 2 for k in later)
        zeta = max(zeta, zeta_j)
        g_tilde = max(g_tilde, sum(g_k[k] for k in later))
    return CommutationStructure(
        g=g, s=s, g_tilde=g_tilde, zeta=zeta, ordering=ordering,
        pair_s=pair_s, noncommuting={e: tuple(v) for e, v in noncomm.items()})


def best_zeta_ordering(h: FFHamiltonian) -> tuple[tuple[Edge, ...], float]:
    """Edge ordering minimizing zeta: exhaustive up to EXHAUSTIVE_ORDERING_EDGES
    edges, greedy above."""
    structure = commutation_structure(h)
    edges = h.graph.edges

    def zeta_of(ordering):
        return commutation_structure(h, ordering).zeta

    if len(edges) <= EXHAUSTIVE_ORDERING_EDGES:
        best = min(itertools.permutations(edges), key=zeta_of)
        return tuple(best), zeta_of(best)
    # greedy: place the edge with the most remaining noncommuting partners last
    remaining = list(edges)
    tail: list[Edge] = []
    while remaining:
        counts = {e: sum(1 for f in structure.noncommuting[e] if f in remaining)
                  for e in remaining}
        pick = max(remaining, key=lambda e: (counts[e], e))
        remaining.remove(pick)
        tail.append(pick)
    ordering = tuple(reversed(tail))
    return ordering, zeta_of(ordering)


def random_ff_instance(seed: int, nodes: Sequence[int], dims: dict[int, int] | Sequence[int],
                       edges: Iterable[Iterable[int]], ground_rank: int,
                       projector_ranks: dict[Edge, int] | None = None) -> FFHamiltonian:
    """Random frustration-free instance with a planted shared null space.

    Draws a Haar-random `ground_rank`-dimensional subspace, then for each edge
    a random local projector annihilating it.  The actual zero-energy space may
    exceed the planted one; the frustration-free property always holds.
    """
    nodes = tuple(int(v) for v in nodes)
    if not isinstance(dims, dict):
        dims = {v: int(d) for v, d in zip(nodes, dims)}
    g = Hypergraph(nodes, tuple(tuple(e) for e in edges))
    total = math.prod(dims[v] for v in g.vertices)
    if not 1 <= ground_rank <= total:
        raise InputError(f"ground rank {ground_rank} infeasible in dimension {total}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((total, ground_rank)) + 1j * rng.standard_normal((total, ground_rank))
    basis, _ = np.linalg.qr(raw)

    order = g.vertices
    shape = tuple(dims[v] for v in order)
    projectors = {}
    for e in g.edges:
        axes = tuple(order.index(v) for v in e)
        d_e = math.prod(dims[v] for v in e)
        rest = [a for a in range(len(order)) if a not in axes]
        # columns of the reshaped ground basis span the edge-local subspace the
        # projector must annihilate
        cols = []
        for i in range(ground_rank):
            t = basis[:, i].reshape(shape)
            t = np.transpose(t, axes + tuple(rest))
            cols.append(t.reshape(d_e, -1))
        w = np.concatenate(cols, axis=1)
        u, sv, _ = np.linalg.svd(w, full_matrices=True)
        keep = int(np.sum(sv > 1e-10))
        comp = u[:, keep:]  # orthonormal basis of the allowed subspace
        avail = comp.shape[1]
        if projector_ranks is not None and e in projector_ranks:
            r = projector_ranks[e]
            if r > avail:
                raise InputError(f"rank {r} infeasible on edge {e} (max {avail})")
        else:
            r = avail if avail == 0 else int(rng.integers(1, avail + 1))
        if r == 0:
            p = np.zeros((d_e, d_e), dtype=complex)
        else:
            mix = rng.standard_normal((avail, avail)) + 1j * rng.standard_normal((avail, avail))
            q, _ = np.linalg.qr(comp @ mix)
            v = q[:, :r]
            p = v @ v.conj().T
        projectors[e] = (p + p.conj().T) / 2
    return FFHamiltonian(g, projectors, dict(dims))


# ---------------------------------------------------------------------------
# serialization: graph JSON plus per-edge matrices in an npz container

def save_hamiltonian(h: FFHamiltonian, path) -> None:
    manifest = {
        "graph": json.loads(h.graph.to_json()),
        "node_dims": {str(k): v for k, v in h.node_dims.items()},
        "edges": [list(e) for e in h.graph.edges],
    }
    arrays = {f"edge_{i}": h.projectors[e] for i, e in enumerate(h.graph.edges)}
    np.savez(path, manifest=json.dumps(manifest), **arrays)


def load_hamiltonian(path) -> FFHamiltonian:
    with np.load(path, allow_pickle=False) as data:
        try:
            manifest = json.loads(str(data["manifest"]))
            g = Hypergraph(tuple(manifest["graph"]["vertices"]),
                           tuple(tuple(e) for e in manifest["graph"]["edges"]))
            dims = {int(k): int(v) for k, v in manifest["node_dims"].items()}
            projectors = {tuple(sorted(e)): data[f"edge_{i}"]
                          for i, e in enumerate(manifest["edges"])}
        except KeyError as exc:
            raise InputError(f"malformed Hamiltonian container: missing {exc}") from exc
    return FFHamiltonian(g, projectors, dims)
