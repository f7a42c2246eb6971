"""Statistical simulation of the verification procedure.

States are carried as pure-state ensembles plus a weight on I/d, so single
tests cost a handful of small tensor contractions and never a d x d matrix.
Each test draws a matching, then one direction per bond; the test passes iff
every bond test passes, and the joint pass probability is evaluated exactly
before a single Bernoulli draw.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from . import linalg
from .aklt import spin_operators
from .errors import InputError
from .hamiltonian import ground_space
from .protocol import Protocol, top_excited_pair

NOISE_MODES = ("worst_case", "depolarizing", "coherent_rotation")


@dataclass(frozen=True)
class NoiseSpec:
    """How far from the target subspace the prepared state should sit."""

    mode: str
    epsilon: float

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise InputError(f"unknown noise mode {self.mode!r}")
        if not (0 <= self.epsilon < 1):
            raise InputError("noise epsilon must lie in [0, 1)")


@dataclass(frozen=True, eq=False)
class PreparedState:
    """Density operator sum_i w_i |v_i><v_i| + white * I/dim: a pure-state
    ensemble plus a weight on the maximally mixed state, so no production
    path needs a dim x dim matrix."""

    dim: int
    ensemble: tuple[tuple[float, np.ndarray], ...]
    white: float = 0.0

    def expectation(self, apply_op, normalized_trace: float) -> float:
        """tr(A sigma) for an operator given by its action on vectors and its
        normalized trace tr(A)/dim, which the white-noise part contributes."""
        total = self.white * normalized_trace
        for w, v in self.ensemble:
            total += w * float(np.real(np.vdot(v, apply_op(v))))
        return total


def _ground_density(basis: np.ndarray) -> tuple[tuple[float, np.ndarray], ...]:
    rank = basis.shape[1]
    return tuple((1.0 / rank, np.ascontiguousarray(basis[:, i])) for i in range(rank))


def prepare_state(protocol: Protocol, spec: NoiseSpec) -> PreparedState:
    """Prepare a state with target-subspace weight 1 - epsilon.

    worst_case mixes the ground state with the top excited eigenvector of the
    verification operator, saturating the pass-probability law exactly;
    depolarizing mixes in white noise calibrated to the same infidelity;
    coherent_rotation rotates one node until the infidelity is reached.
    """
    h = protocol.hamiltonian
    d = h.dim
    _, basis = ground_space(h)
    eps = spec.epsilon
    if eps == 0:
        return PreparedState(d, _ground_density(basis))

    if spec.mode == "worst_case":
        _, phi = top_excited_pair(protocol)
        parts = tuple((w * (1.0 - eps), v) for w, v in _ground_density(basis))
        return PreparedState(d, parts + ((eps, phi),))

    if spec.mode == "depolarizing":
        rank = basis.shape[1]
        if rank == d:
            raise InputError("depolarizing noise cannot lower the fidelity: the "
                             "ground space is the whole space (H = 0)")
        # solve (1-w) + w * rank/d = 1 - eps for the mixing weight
        w = eps * d / (d - rank)
        if not 0 <= w <= 1:
            raise InputError(f"infidelity {eps} unreachable by depolarizing noise")
        parts = tuple((x * (1.0 - w), v) for x, v in _ground_density(basis))
        return PreparedState(d, parts, white=w)

    # coherent_rotation: rotate the first node about x until the overlap drops
    psi = basis[:, 0]
    generator = _first_node_generator(h)

    def infidelity(theta):
        v = _apply_rotation(h, generator, theta, psi)
        return 1.0 - float(np.linalg.norm(basis.conj().T @ v) ** 2)

    theta = _solve_rotation_angle(infidelity, eps)
    v = _apply_rotation(h, generator, theta, psi)
    return PreparedState(d, ((1.0, v),))


def _first_node_generator(h) -> np.ndarray:
    first = h.node_order[0]
    twice_s = h.node_dims[first] - 1
    return spin_operators(twice_s)[0]  # S_x on the first node


def _apply_rotation(h, generator: np.ndarray, theta: float, psi: np.ndarray) -> np.ndarray:
    u = scipy.linalg.expm(-1j * theta * generator)
    plan = linalg.make_plan(u, (h.node_order[0],), h.node_order, h.node_dims)
    return plan(psi)


def _solve_rotation_angle(infidelity, eps: float) -> float:
    import scipy.optimize  # local: importing it would add ~0.2 s to every ffv start-up

    hi = 1e-3
    while infidelity(hi) < eps:
        hi *= 2.0
        if hi > 64.0:
            raise InputError("coherent rotation cannot reach the requested infidelity")
    return float(scipy.optimize.brentq(lambda t: infidelity(t) - eps, 0.0, hi,
                                       xtol=1e-14))


def acceptance_probability(protocol: Protocol, state: PreparedState) -> float:
    """Exact average pass probability tr(Omega sigma)."""
    if state.dim != protocol.hamiltonian.dim:
        raise InputError("state dimension does not match the protocol")
    return state.expectation(protocol.apply_omega, _normalized_omega_trace(protocol))


def _normalized_omega_trace(protocol: Protocol) -> float:
    """tr(Omega)/d: each test's trace factorizes over its disjoint bonds, and
    the nodes it leaves alone contribute a factor 1."""
    ops = protocol.bond_ops
    return sum(p * math.prod(ops[e].trace / ops[e].bond.dim for e in m)
               for m, p in zip(protocol.cover.matchings, protocol.cover.probabilities))


@dataclass(frozen=True)
class RunResult:
    """One verification run: N tests, accept iff all passed."""

    n_tests: int
    n_passed: int
    accepted: bool
    seed: int

    def __post_init__(self):
        if not 0 <= self.n_passed <= self.n_tests:
            raise InputError("passed count out of range")


# Tests are drawn in blocks: a run's first block is small because most runs
# of a rejected state stop early, later blocks double up to the bound, which
# keeps the per-block arrays small.
FIRST_BLOCK = 64
MAX_BLOCK = 4096

# a matching whose design combinations exceed this many entries is evaluated
# test by test: its table would cost memory and would rarely be hit
MEMO_TABLE_LIMIT = 1 << 20


class _TestSampler:
    """Draws blocks of tests and evaluates their exact pass probabilities.

    A test is one bond test (plan, tr(R)/d_e) per bond of its matching. Bonds
    with a finite direction distribution draw support-point indices and reuse
    the bond tests of `Protocol.design_tests`; isotropic bonds draw unit
    vectors and build their bond tests per draw. A matching whose bonds all
    draw indices keeps a table of pass probabilities indexed by them (one
    axis per bond), lazily filled and NaN meaning not yet computed, so blocks
    of repeated tests cost a handful of array operations.
    """

    def __init__(self, protocol: Protocol, state: PreparedState):
        self.protocol = protocol
        self.state = state
        self.matchings = protocol.cover.matchings
        self._cum_matching = np.cumsum(protocol.cover.probabilities)
        self._cum_weights = {e: np.cumsum(op.distribution.weights)
                             for e, op in protocol.bond_ops.items()
                             if op.distribution is not None}
        self._tables = []  # per matching: probability table, or None
        for matching in self.matchings:
            shape = tuple(len(self._cum_weights[e]) for e in matching
                          if e in self._cum_weights)
            # an empty matching has no draws to index a table by
            memo = 0 < len(shape) == len(matching) and math.prod(shape) <= MEMO_TABLE_LIMIT
            self._tables.append(np.full(shape, np.nan) if memo else None)
        self.memoized = all(t is not None for t in self._tables)

    def pass_probability(self, tests) -> float:
        """Exact pass probability of one test, given as its bond tests
        (plan, tr(R)/d_e) on disjoint bonds."""

        def apply_all(v):
            for plan, _ in tests:
                v = plan(v)
            return v

        # tr(test)/d is a product over the disjoint bonds
        q = self.state.expectation(apply_all, math.prod(t for _, t in tests))
        return min(max(q, 0.0), 1.0)

    def draw_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw `size` i.i.d. tests and return their exact pass probabilities."""
        ls = np.searchsorted(self._cum_matching, rng.random(size), side="right")
        # clamp draws past a cumulative sum that ends just below 1
        np.minimum(ls, len(self.matchings) - 1, out=ls)
        q = np.empty(size)
        for l, matching in enumerate(self.matchings):
            idx = np.flatnonzero(ls == l)
            if idx.size:
                q[idx] = self._matching_block(l, matching, rng, idx.size)
        return q

    def _matching_block(self, l: int, matching, rng: np.random.Generator,
                        count: int) -> np.ndarray:
        draws = []  # per bond: direction indices, or unit vectors if isotropic
        for e in matching:
            cum = self._cum_weights.get(e)
            if cum is None:  # isotropic bond: continuous draws
                v = rng.standard_normal((count, 3))
                draws.append(v / np.linalg.norm(v, axis=1, keepdims=True))
            else:
                i = np.searchsorted(cum, rng.random(count), side="right")
                draws.append(np.minimum(i, len(cum) - 1))
        design = self.protocol.design_tests
        table = self._tables[l]
        if table is None:  # nothing to memoize: evaluate test by test
            return np.array([self.pass_probability(
                [design[e][d[t]] if e in design else self.protocol.bond_test(e, d[t])
                 for e, d in zip(matching, draws)]) for t in range(count)])
        q = table[tuple(draws)]
        missing = np.isnan(q)
        if missing.any():
            for key in np.unique(np.stack(draws)[:, missing], axis=1).T:
                table[tuple(key)] = self.pass_probability(
                    [design[e][i] for e, i in zip(matching, key)])
            q = table[tuple(draws)]
        return q


def _single_run(sampler: _TestSampler, rng: np.random.Generator, n_tests: int,
                seed: int) -> RunResult:
    passed = 0
    # a test outside the tables costs one exact evaluation, so runs that may
    # draw one go test by test and evaluate none past the first failure
    size, cap = (FIRST_BLOCK, MAX_BLOCK) if sampler.memoized else (1, 1)
    while passed < n_tests:
        size = min(size, n_tests - passed)
        q = sampler.draw_block(rng, size)
        failed = rng.random(size) >= q
        if failed.any():
            return RunResult(n_tests=n_tests, n_passed=passed + int(np.argmax(failed)),
                             accepted=False, seed=seed)
        passed += size
        size = min(2 * size, cap)
    return RunResult(n_tests=n_tests, n_passed=passed, accepted=True, seed=seed)


def run_verification(protocol: Protocol, state: PreparedState, n_tests: int,
                     seed: int) -> RunResult:
    """One accept/reject run: N i.i.d. tests, accept iff all pass."""
    if n_tests < 1:
        raise InputError("need at least one test")
    return _single_run(_TestSampler(protocol, state), np.random.default_rng(seed),
                       n_tests, seed)


def run_many(protocol: Protocol, state: PreparedState, n_tests: int, runs: int,
             seed: int) -> list[RunResult]:
    """Independent runs with per-run substreams derived from (seed, index)."""
    if n_tests < 1:
        raise InputError("need at least one test")
    sampler = _TestSampler(protocol, state)
    return [_single_run(sampler, np.random.default_rng([seed, i]), n_tests, seed)
            for i in range(runs)]


def estimate_pass_rate(protocol: Protocol, state: PreparedState, n_draws: int,
                       seed: int) -> tuple[float, float]:
    """Monte-Carlo single-test pass rate and its standard error."""
    if n_draws < 1:
        raise InputError("need at least one draw")
    sampler = _TestSampler(protocol, state)
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, n_draws, MAX_BLOCK):
        size = min(MAX_BLOCK, n_draws - start)
        q = sampler.draw_block(rng, size)
        hits += int(np.count_nonzero(rng.random(size) < q))
    rate = hits / n_draws
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-12) / n_draws)
    return rate, stderr


def aggregate(results: Sequence[RunResult]) -> dict:
    """Acceptance-rate summary of a batch of runs."""
    if not results:
        return {"runs": 0, "accepted": 0, "acceptance_rate": None,
                "mean_passed": None}
    accepted = sum(1 for r in results if r.accepted)
    return {
        "runs": len(results),
        "accepted": accepted,
        "acceptance_rate": accepted / len(results),
        "mean_passed": sum(r.n_passed for r in results) / len(results),
    }


RUN_COLUMNS = ("run", "n_tests", "n_passed", "accepted", "seed")


def runs_to_csv(results: Sequence[RunResult]) -> str:
    """Per-run CSV with the documented column schema."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RUN_COLUMNS)
    for i, r in enumerate(results):
        writer.writerow([i, r.n_tests, r.n_passed, int(r.accepted), r.seed])
    return buf.getvalue()


def run_records(results: Sequence[RunResult]) -> list[dict]:
    """Per-run records with the documented column names."""
    return [{"run": i, "n_tests": r.n_tests, "n_passed": r.n_passed,
             "accepted": r.accepted, "seed": r.seed}
            for i, r in enumerate(results)]
