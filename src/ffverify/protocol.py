"""Matching/coloring verification protocols: exact spectral gaps, the
closed-form lower bounds, sample counts, and the sample costs of the
competing schemes, one function per formula.

A `Protocol` is H, a matching cover and one design: every bond test draws
its direction from the same distribution, or isotropically, so a protocol
holds one bond operator per bond class (equal spin pairs and projectors),
shared by the class's edges; there are no mixed protocols.  Omega's bond
operators are a `linalg.LocalOperators` that shares H's sector when both are
SU(2)-invariant.  nu is solved and read in Omega's solve space;
`top_excited_pair` lifts the eigenvector to the full space, once.  Bond tests
are compiled per block of directions (`Protocol.bond_tests`), for the design
points once per edge and protocol, and for isotropic draws once per block
of draws.
Results are numbers and `GapReport.to_dict` rows; `cli` prints them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .aklt import BondOperator, DirectionDistribution, bond, bond_operator, \
    bond_test_projector, isotropic_bond_operator
from .errors import InputError
from .graph import Edge, MatchingCover, max_degree, Hypergraph
from .hamiltonian import FFHamiltonian, commutation_structure, spectral_gap_gamma
from .linalg import ApplyPlan
from .tolerances import BOUND_CHECK_TOL


@dataclass(frozen=True, eq=False)
class Protocol:
    """A matching cover of H's edges and one direction distribution, the
    design, that every bond test draws from (None: isotropic directions).

    `bond_ops` maps each edge to its bond operator.  A bond class, edges
    with equal spin pairs and equal projectors, shares one operator, built
    and checked against the kernel of its projector once."""

    hamiltonian: FFHamiltonian
    cover: MatchingCover
    design: DirectionDistribution | None
    bond_ops: dict[Edge, BondOperator] = field(init=False)

    def __post_init__(self):
        h = self.hamiltonian
        if not self.cover.covers(h.graph):
            raise InputError("cover does not match the Hamiltonian's edge set")
        classes: dict[tuple, BondOperator] = {}  # by (spin pair, projector bytes)
        ops = {}
        for e in h.graph.edges:
            b = bond(h, e)
            key = (b, h.projectors[e].tobytes())
            if key not in classes:
                op = (isotropic_bond_operator(b) if self.design is None
                      else bond_operator(b, self.design))
                q = np.eye(b.dim) - h.projectors[e]  # onto ker P_e
                moved = op.matrix @ q - q
                if not linalg.norm_below(moved, 1e-10):
                    raise InputError(f"bond operator on {e} moves the kernel of H's projector "
                                     f"({linalg.operator_norm(moved):.2e}): its tests could "
                                     "fail a ground state")
                classes[key] = op
            ops[e] = classes[key]
        object.__setattr__(self, "bond_ops", ops)

    @cached_property
    def nu_e(self) -> float:
        """Minimum bond gap over the distinct bond operators."""
        return min(op.gap for op in set(self.bond_ops.values()))

    @cached_property
    def local(self) -> linalg.LocalOperators:
        """The bond operators as local operators, sharing H's sector when
        both are SU(2)-invariant."""
        h = self.hamiltonian
        return linalg.LocalOperators({e: op.matrix for e, op in self.bond_ops.items()},
                                     h.node_order, h.node_dims, sector_of=h.local)

    def bond_tests(self, e: Edge, directions) -> tuple[tuple[ApplyPlan, float], ...]:
        """The bond tests on edge e along an (n, 3) block of directions, from
        one block of test matrices: each as its apply plan and its normalized
        trace tr(R)/d_e."""
        h = self.hamiltonian
        return tuple((linalg.make_plan(r, e, h.node_order, h.node_dims),
                      float(np.real(np.trace(r))) / len(r))
                     for r in bond_test_projector(self.bond_ops[e].bond, directions))

    @cached_property
    def design_tests(self) -> dict[Edge, tuple[tuple[ApplyPlan, float], ...]]:
        """bond_tests at the design's support points on every edge, none for
        isotropic tests; state-independent, so built once per protocol."""
        if self.design is None:
            return {}
        return {e: self.bond_tests(e, self.design.points) for e in self.bond_ops}

    def apply_test(self, matching: Sequence[Edge], vec: np.ndarray) -> np.ndarray:
        """The test operator of a matching on a full-space vector or, when
        Omega has a sector, a sector vector."""
        plans = self.local.plans(vec)
        out = vec
        for e in matching:
            out = plans[e](out)
        return out

    def apply_omega(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros(vec.shape, dtype=np.result_type(self.local.dtype, vec.dtype))
        for m, p in zip(self.cover.matchings, self.cover.probabilities):
            out += p * self.apply_test(m, vec)
        return out

    @cached_property
    def _top_excited(self) -> tuple[float, np.ndarray]:
        """One solve of (1 - Q0) Omega (1 - Q0) for its largest eigenpair in
        Omega's solve space, in real arithmetic when Omega and H's kernel are
        real; the eigenvector stays there, deflated.  Q0 projects onto H's
        kernel in the sector, or onto the full ground basis."""
        h = self.hamiltonian
        # either read runs H's solve, which refuses d above FFV_MAX_DIM
        kernel = h._ground_basis if self.local.sector is None else h._low_spectrum[0]

        def deflated(v):
            return linalg.deflate(kernel, self.apply_omega(linalg.deflate(kernel, v)))

        lam, vec = linalg.largest_eigenpair(deflated, len(kernel))
        return lam, linalg.deflate(kernel, vec)

    @cached_property
    def _top_excited_lifted(self) -> tuple[float, np.ndarray]:
        lam, vec = self._top_excited
        if self.local.sector is not None:
            vec = self.local.sector.lift(vec)
        return lam, vec / np.linalg.norm(vec)


def top_excited_pair(protocol: Protocol) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of (1 - Q0) Omega (1 - Q0) and its unit eigenvector
    orthogonal to the ground space, in the full space: one cached solve and
    one lift per protocol."""
    return protocol._top_excited_lifted


def measured_gap(protocol: Protocol) -> float:
    """Exact spectral gap 1 - ||(1 - Q0) Omega (1 - Q0)|| of the protocol's
    verification operator, clamped at 0 against rounding."""
    lam, _ = protocol._top_excited
    return max(1.0 - lam, 0.0)


# ---------------------------------------------------------------------------
# closed-form bounds

def gap_factor(m: int, x: float) -> float:
    """Shape factor of the matching-protocol gap bound.

    (sqrt(1+x) - 1)/sqrt(1+x) for m = 2 and (sqrt(1+x) - 1)/(sqrt(1+x) + 1)
    for m >= 3; monotone increasing and concave, with limits 0 at x = 0 and
    1 as x -> infinity.
    """
    if m < 2:
        raise InputError("need at least two matchings")
    if not x >= 0:
        raise InputError("argument must be nonnegative")
    if math.isinf(x):
        return 1.0
    root = math.sqrt(1.0 + x)
    if m == 2:
        return (root - 1.0) / root
    return (root - 1.0) / (root + 1.0)


def matching_gap_bounds(m: int, nu_e: float, gamma: float, s: float,
                        g: int) -> tuple[float, float]:
    """(strong, weak) lower bounds on the gap of a matching protocol.

    strong = (nu_e/m) * gap_factor(m, gamma/(s^2 g^2)); weak = nu_e*gamma/(6 m g^2).
    The degenerate s = 0 or g = 0 case uses the x -> infinity limit of the
    factor, which only strengthens the bound.
    """
    if m < 2:
        raise InputError("need at least two matchings")
    if not (0 <= s < 1):
        raise InputError("s must lie in [0, 1)")
    if not (nu_e >= 0 and gamma > 0 and g >= 0 and math.isfinite(nu_e)
            and math.isfinite(gamma)):
        raise InputError("nu_e, gamma, g must be positive and finite")
    denom = s * s * g * g
    x = math.inf if denom == 0 else gamma / denom
    strong = (nu_e / m) * gap_factor(m, x)
    weak = strong if g == 0 else nu_e * gamma / (6 * m * g * g)
    return strong, weak


def coloring_gap_bound(nu_e: float, gamma: float, n_edges: int) -> float:
    """Lower bound nu_e * gamma / |E| for coloring protocols with p_l = |M_l|/|E|."""
    if not (nu_e >= 0 and gamma > 0 and n_edges >= 1 and math.isfinite(nu_e)
            and math.isfinite(gamma)):
        raise InputError("nu_e, gamma, |E| must be positive and finite")
    return nu_e * gamma / n_edges


def _check_confidence(epsilon: float, delta: float) -> None:
    if not (0 < epsilon < 1 and 0 < delta < 1):
        raise InputError("epsilon and delta must lie in (0, 1)")


def _count(rounding, numerator: float, denominator: float, gap: str, epsilon: float):
    """rounding(numerator / denominator), the sample count at `gap` (a name
    and its value) and epsilon, refused when the quotient or the count is not
    a finite float."""
    quotient = numerator / denominator if denominator else math.inf
    count = rounding(quotient) if math.isfinite(quotient) else quotient
    if not math.isfinite(count):
        raise InputError(f"the sample count at {gap} and epsilon = {epsilon:.3g} is not finite")
    return count


def sample_count(nu: float, epsilon: float, delta: float) -> int:
    """Tests needed at gap nu: ceil(ln delta / ln(1 - nu * epsilon))."""
    _check_confidence(epsilon, delta)
    if not (0 < nu <= 1):
        raise InputError("nu must lie in (0, 1]")
    return _count(math.ceil, math.log(delta), math.log1p(-nu * epsilon), f"nu = {nu:.3g}", epsilon)


def sample_count_from_bounds(m: int, nu_e: float, epsilon: float, delta: float,
                             gamma: float, s: float, g: int) -> tuple[int, int]:
    """(N_strong, N_weak) from the closed-form gap bounds.

    N_strong = m ln(1/delta) / (nu_e epsilon f) rounded to the nearest integer,
    N_weak likewise with the weak bound.
    """
    _check_confidence(epsilon, delta)
    strong, weak = matching_gap_bounds(m, nu_e, gamma, s, g)
    if not (strong > 0 and weak > 0):
        raise InputError("gap bounds are not positive")
    log_inv = math.log(1.0 / delta)
    return (_count(round, log_inv, strong * epsilon, f"the strong bound {strong:.3g}", epsilon),
            _count(round, log_inv, weak * epsilon, f"the weak bound {weak:.3g}", epsilon))


@dataclass(frozen=True)
class GapReport:
    """Measured gap of one protocol next to every applicable lower bound.

    The matching-protocol bounds need at least two matchings and the coloring
    bound needs proportional probabilities; inapplicable entries are None.
    """

    nu_measured: float
    thm1_strong: float | None
    thm1_weak: float | None
    thm2: float | None
    parameters: dict

    @property
    def passed(self) -> bool:
        ok = True
        for bound in (self.thm1_strong, self.thm1_weak, self.thm2):
            if bound is not None:
                ok = ok and self.nu_measured >= bound - BOUND_CHECK_TOL
        return ok

    def to_dict(self) -> dict:
        out = {"nu_measured": self.nu_measured, "thm1_strong": self.thm1_strong,
               "thm1_weak": self.thm1_weak, "thm2": self.thm2}
        out.update(self.parameters)
        return out


def gap_report(protocol: Protocol, gamma: float | None = None) -> GapReport:
    """Measure the protocol gap and evaluate the applicable bounds at gamma (default: solved)."""
    h = protocol.hamiltonian
    structure = commutation_structure(h)
    gamma = float(spectral_gap_gamma(h) if gamma is None else gamma)
    nu_e = protocol.nu_e
    m = len(protocol.cover)
    nu = measured_gap(protocol)
    if m >= 2:
        strong, weak = matching_gap_bounds(m, nu_e, gamma, structure.s, structure.g)
    else:
        strong = weak = None
    thm2 = None
    if protocol.cover.is_coloring():
        n_edges = h.graph.n_edges
        proportional = all(
            abs(p - len(mm) / n_edges) < 1e-12
            for p, mm in zip(protocol.cover.probabilities, protocol.cover.matchings))
        if proportional:
            thm2 = coloring_gap_bound(nu_e, gamma, n_edges)
    params = {"n": h.graph.n_vertices, "edge_count": h.graph.n_edges, "m": m,
              "gamma": gamma, "nu_E": nu_e, "s": structure.s, "g": structure.g,
              "dim": h.dim}
    return GapReport(nu_measured=nu, thm1_strong=strong, thm1_weak=weak,
                     thm2=thm2, parameters=params)


# ---------------------------------------------------------------------------
# protocol assembly

def build_protocol(h: FFHamiltonian, cover: MatchingCover,
                   mu: DirectionDistribution | None) -> Protocol:
    """The protocol on cover whose bond tests all draw their directions from
    mu (isotropic when mu is None)."""
    return Protocol(h, cover, mu)


def aklt_protocol_bounds(g: Hypergraph, gamma: float, epsilon: float | None = None,
                         delta: float | None = None) -> dict:
    """Closed-form gap floors and sample ceilings specialized to AKLT graphs.

    Uses S_E <= max degree, nu_e = 2/(2 S_E + 1), m <= max degree + 1 and the
    proportional-coloring bound for the large-degree variant.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise InputError("gamma must be positive and finite")
    d = max_degree(g)
    if d < 1:
        raise InputError("graph has no edges")
    n = g.n_vertices
    out = {
        "gap_floor": gamma / (24.0 * d ** 4),
        "large_degree_gap": 4.0 * gamma / (n * d * (2 * d + 1)),
    }
    if epsilon is not None and delta is not None:
        _check_confidence(epsilon, delta)
        log_inv = math.log(1.0 / delta)
        for count, gap in (("n_ceiling", "gap_floor"), ("large_degree_n", "large_degree_gap")):
            out[count] = _count(math.ceil, log_inv, epsilon * out[gap],
                                f"the {gap} {out[gap]:.3g}", epsilon)
    return out


# ---------------------------------------------------------------------------
# competitor sample costs

def _lead_cost(numerator: float, gamma: float, epsilon: float, log_term: float) -> float:
    """numerator / (2 gamma^2 epsilon^2) * log_term, the form of the HKSE and
    BHSRE costs, refused when it is not finite."""
    return _count(lambda lead: lead * log_term, numerator, 2.0 * gamma ** 2 * epsilon ** 2,
                  f"gamma = {gamma:.3g}", epsilon)


def hkse_cost(edge_count: int, gamma: float, epsilon: float, delta: float) -> float:
    """|E|^3 / (2 gamma^2 eps^2) * ln[-(|E|+1)/ln(1-delta)]."""
    if not (edge_count >= 1 and gamma > 0 and math.isfinite(gamma)):
        raise InputError("edge count and gamma must be positive and finite")
    _check_confidence(epsilon, delta)
    ratio = -(edge_count + 1) / math.log1p(-delta)
    if not ratio > 1:
        raise InputError(f"the HKSE cost at |E| = {edge_count} and delta = {delta:.3g} is not "
                         "positive: ln[-(|E|+1)/ln(1-delta)] <= 0")
    return _lead_cost(edge_count ** 3, gamma, epsilon, math.log(ratio))


def hkse_cost_approx(edge_count: int, gamma: float, epsilon: float, delta: float) -> float:
    """Large-|E| small-delta approximation |E|^3/(2 gamma^2 eps^2) ln(|E|/delta)."""
    if not (edge_count >= 1 and gamma > 0 and math.isfinite(gamma)):
        raise InputError("edge count and gamma must be positive and finite")
    _check_confidence(epsilon, delta)
    return _lead_cost(edge_count ** 3, gamma, epsilon, math.log(edge_count / delta))


def bhsre_lower(n: int, gamma: float, epsilon: float, delta: float,
                kappa: int, alpha: float | None = None) -> float:
    """n^2 (alpha kappa)^2 / (2 gamma^2 eps^2) * ln((kappa+1)/delta); the
    alpha-free lower bound substitutes alpha*kappa >= 1."""
    if kappa < 2:
        raise InputError("kappa must be at least 2")
    if alpha is not None and not (alpha * kappa >= 1 and math.isfinite(alpha)):
        raise InputError("alpha * kappa must be at least 1 and alpha finite")
    if not (n >= 1 and gamma > 0 and math.isfinite(gamma)):
        raise InputError("n and gamma must be positive and finite")
    _check_confidence(epsilon, delta)
    factor = 1.0 if alpha is None else (alpha * kappa) ** 2
    return _lead_cost(factor * n ** 2, gamma, epsilon, math.log((kappa + 1) / delta))


def tm_lower(n: int, r: float) -> float:
    """32 R^2 n^5 + 2^11 n^15 R^4 ln 2 (verification at precision 1/n), in
    float products, which overflow to inf rather than raise; refused when
    not finite."""
    if not (n >= 1 and r > 0 and math.isfinite(r)):
        raise InputError("n and R must be positive and finite")
    x = float(min(n, 2 ** 1023))  # from 2^1023 on the cost is inf for every R
    r2, n5 = r * r, x * x * x * x * x
    return _count(float, 32.0 * r2 * n5 + 2.0 ** 11 * n5 * n5 * n5 * r2 * r2 * math.log(2.0),
                  1.0, f"R = {r:.3g}", 1 / n)


def gkea_costs(modes: int, epsilon: float, delta: float) -> tuple[int, int]:
    """(general, gapped) sample counts for Gaussian-state certification."""
    if modes < 2:
        raise InputError("need at least two modes")
    _check_confidence(epsilon, delta)
    log_term = math.log(2.0 / delta)
    at = f"{modes} modes"
    return (_count(math.ceil, 2.0 * modes ** 4 * log_term, epsilon ** 2, at, epsilon),
            _count(math.ceil, modes ** 2 * math.log(modes) ** 2 * log_term,
                   2.0 * epsilon ** 2, at, epsilon))
