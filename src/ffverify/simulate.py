"""Statistical simulation of the verification procedure.

States are carried as pure-state ensembles plus a weight on I/d, so single
tests cost a handful of small tensor contractions and never a d x d matrix.
Each test draws a matching, then one direction per bond; the test passes iff
every bond test passes, and the joint pass probability is evaluated exactly
before a single Bernoulli draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .aklt import bond_test_projector
from .errors import InputError
from .hamiltonian import ground_space
from .protocol import Protocol, top_excited_pair
from .tolerances import check_dim

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
            raise InputError("epsilon must lie in [0, 1)")


@dataclass(frozen=True, eq=False)
class PreparedState:
    """Density operator sum_i w_i |v_i><v_i| + white * I/dim: a pure-state
    ensemble plus a weight on the maximally mixed state, so no production
    path needs a dim x dim matrix."""

    dim: int
    ensemble: tuple[tuple[float, np.ndarray], ...]
    white: float = 0.0

    @property
    def matrix(self) -> np.ndarray:
        """Dense density matrix, a test oracle; refuses above the cap."""
        check_dim(self.dim, "dense state")
        out = np.eye(self.dim, dtype=complex) * (self.white / self.dim)
        for w, v in self.ensemble:
            out += w * np.outer(v, v.conj())
        return out

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
    from .aklt import spin_operators

    first = h.node_order[0]
    twice_s = h.node_dims[first] - 1
    return spin_operators(twice_s)[0]  # S_x on the first node


def _apply_rotation(h, generator: np.ndarray, theta: float, psi: np.ndarray) -> np.ndarray:
    import scipy.linalg

    u = scipy.linalg.expm(-1j * theta * generator)
    plan = linalg.make_plan(u, (h.node_order[0],), h.node_order, h.node_dims)
    return plan(psi)


def _solve_rotation_angle(infidelity, eps: float) -> float:
    import scipy.optimize

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


class _TestSampler:
    """Draws tests and evaluates exact per-test pass probabilities.

    Pass probabilities for repeated (matching, direction) combinations are
    memoized, which makes long runs on finitely supported distributions cheap.
    """

    def __init__(self, protocol: Protocol, state: PreparedState):
        self.protocol = protocol
        self.state = state
        h = protocol.hamiltonian
        self.h = h
        self._prob_cache: dict = {}
        self.matchings = protocol.cover.matchings
        self.probabilities = np.asarray(protocol.cover.probabilities)
        # cumulative tables make the per-test draws cheap inner-loop work
        self._cum_matching = np.cumsum(self.probabilities)
        self._cum_weights = {}
        for e, op in protocol.bond_ops.items():
            if op.distribution is not None:
                self._cum_weights[e] = np.cumsum(op.distribution.weights)

    def pass_probability(self, l: int, direction_indices=None, directions=None) -> float:
        matching = self.matchings[l]
        key = None
        if direction_indices is not None:
            key = (l, tuple(direction_indices))
            cached = self._prob_cache.get(key)
            if cached is not None:
                return cached
            directions = [self.protocol.bond_ops[e].distribution.points[i]
                          for e, i in zip(matching, direction_indices)]
        h = self.h
        plans = []
        trace = 1.0  # tr(test)/d, a product over the disjoint bonds
        for e, r in zip(matching, directions):
            b = self.protocol.bond_ops[e].bond
            rmat = bond_test_projector(b, r)
            plans.append(linalg.make_plan(rmat, e, h.node_order, h.node_dims))
            trace *= float(np.real(np.trace(rmat))) / b.dim

        def apply_all(v):
            for plan in plans:
                v = plan(v)
            return v

        q = self.state.expectation(apply_all, trace)
        q = min(max(q, 0.0), 1.0)
        if key is not None:
            self._prob_cache[key] = q
        return q

    def draw_test(self, rng: np.random.Generator) -> float:
        """Draw one test and return its exact pass probability."""
        l = int(np.searchsorted(self._cum_matching, rng.random(), side="right"))
        l = min(l, len(self.matchings) - 1)
        matching = self.matchings[l]
        indices = []
        directions = []
        for e in matching:
            cum = self._cum_weights.get(e)
            if cum is None:  # isotropic bond: continuous draw, nothing to memoize
                indices = None
                v = rng.standard_normal(3)
                directions.append(v / np.linalg.norm(v))
            else:
                i = min(int(np.searchsorted(cum, rng.random(), side="right")),
                        len(cum) - 1)
                directions.append(self.protocol.bond_ops[e].distribution.points[i])
                if indices is not None:
                    indices.append(i)
        if indices is not None:
            return self.pass_probability(l, direction_indices=tuple(indices))
        return self.pass_probability(l, directions=directions)


def _single_run(sampler: _TestSampler, rng: np.random.Generator, n_tests: int,
                seed: int) -> RunResult:
    passed = 0
    for _ in range(n_tests):
        q = sampler.draw_test(rng)
        if rng.random() < q:
            passed += 1
        else:
            return RunResult(n_tests=n_tests, n_passed=passed, accepted=False, seed=seed)
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
    for _ in range(n_draws):
        if rng.random() < sampler.draw_test(rng):
            hits += 1
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
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RUN_COLUMNS)
    for i, r in enumerate(results):
        writer.writerow([i, r.n_tests, r.n_passed, int(r.accepted), r.seed])
    return buf.getvalue()


def runs_to_json(results: Sequence[RunResult]) -> str:
    """Per-run records plus the aggregate summary."""
    import json

    per_run = [{"run": i, "n_tests": r.n_tests, "n_passed": r.n_passed,
                "accepted": r.accepted, "seed": r.seed}
               for i, r in enumerate(results)]
    return json.dumps({"runs": per_run, "aggregate": aggregate(results)},
                      indent=2, sort_keys=True)
