"""Statistical simulation of the verification procedure.

States are carried as a pure-state ensemble and a weight on I/d; the weight
they leave over is the target-space part, which passes every test surely, so
single tests cost a few small tensor contractions and never a d x d matrix.
Each test passes with probability p = tr(Omega sigma) on a fresh copy of the
state, independently of the others, so a run's first failure is geometric in
1 - p: `run_many` draws it from that law.  The Monte-Carlo pass-rate estimate
checks that the drawn tests average to Omega.  A test draws a matching, then
one direction per bond, and passes iff every bond test passes; the estimate
draws how often each design test comes up, evaluates its pass probability
exactly once and draws its passes as one binomial.  Runs come back as
their pass counts, which `aggregate` summarizes and `cli` prints.
Every noise model is calibrated to its infidelity in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import InputError
from .hamiltonian import ground_space
from .protocol import Protocol, top_excited_pair
from .tolerances import PROB_SUM_TOL

NOISE_MODES = ("worst_case", "depolarizing", "coherent_rotation")


@dataclass(frozen=True, eq=False)
class PreparedState:
    """sum_i w_i |v_i><v_i| + white * I/dim + rest * Q0/rank, Q0 the ground
    projector and rest = 1 - white - sum_i w_i: a target part that every test
    passes surely (`Protocol` checks it), held as no vector."""

    dim: int
    ensemble: tuple[tuple[float, np.ndarray], ...]
    white: float = 0.0

    def __post_init__(self):
        weights = (self.white, *(w for w, _ in self.ensemble))
        if not (min(weights) >= 0 and sum(weights) <= 1.0 + PROB_SUM_TOL):  # refuses NaN
            raise InputError(f"state weights {weights} must be nonnegative, summing to <= 1")

    def expectation(self, apply_op, normalized_trace: float) -> float:
        """tr(A sigma), clamped into [0, 1], for a test or Omega A (which fix
        the ground space) given by its action on vectors and tr(A)/dim."""
        total = 1.0 - self.white - sum(w for w, _ in self.ensemble)
        total += self.white * normalized_trace
        for w, v in self.ensemble:
            total += w * float(np.real(np.vdot(v, apply_op(v))))
        return min(max(total, 0.0), 1.0)


def prepare_state(protocol: Protocol, mode: str, epsilon: float) -> PreparedState:
    """Prepare a state with target-subspace weight 1 - epsilon, by one of
    NOISE_MODES.

    worst_case puts weight epsilon on Omega's top excited eigenvector,
    saturating the pass-probability law exactly; depolarizing puts white noise
    calibrated to the same infidelity, the rest being the target part;
    coherent_rotation rotates one node of a ground vector by the least angle
    that reaches it.
    """
    if mode not in NOISE_MODES:
        raise InputError(f"unknown noise mode {mode!r}")
    if not (0 <= epsilon < 1):
        raise InputError("noise epsilon must lie in [0, 1)")
    h = protocol.hamiltonian
    d = h.dim
    if epsilon == 0:
        return PreparedState(d, ())

    if mode == "worst_case":
        return PreparedState(d, ((epsilon, top_excited_pair(protocol)[1]),))

    if mode == "depolarizing":
        rank, _ = ground_space(h)
        if rank == d:
            raise InputError("depolarizing noise cannot lower the fidelity: the "
                             "ground space is the whole space (H = 0)")
        # solve (1-w) + w * rank/d = 1 - epsilon for the mixing weight
        w = epsilon * d / (d - rank)
        if not 0 <= w <= 1:
            raise InputError(f"infidelity {epsilon} unreachable by depolarizing noise")
        return PreparedState(d, (), white=w)

    # coherent_rotation: exp(-i theta S_x) on the first node takes psi = basis[:, 0]
    # to sum_k exp(-i theta s_k) Pi_k psi, Pi_k the node's S_x eigenprojectors
    _, basis = ground_space(h)
    first = h.node_order[0]
    spins, axes = linalg.eigh(linalg.spin_operators(h.node_dims[first] - 1)[0])
    parts = np.stack([linalg.make_plan(np.outer(a, a.conj()), (first,), h.node_order,
                                       h.node_dims)(basis[:, 0]) for a in axes.T], axis=1)
    theta = _solve_rotation_angle(basis.conj().T @ parts, spins, epsilon)
    return PreparedState(d, ((1.0, parts @ np.exp(-1j * theta * spins)),))


def _solve_rotation_angle(overlaps: np.ndarray, spins: np.ndarray, eps: float) -> float:
    """The least angle in (0, 2 pi] where 1 - ||overlaps exp(-i theta spins)||^2
    reaches eps, bisected to 1e-14.  The spins differ by integers, so in
    w = exp(-i theta) the fidelity is sum_m a_m w^m, a_m the m-th diagonal sum
    of overlaps^dagger overlaps; it is monotone between the angles of the roots
    of sum_m m a_m w^(m + 2S), its derivative (roots off the unit circle only
    add points)."""

    def infidelity(theta):
        return 1.0 - float(np.linalg.norm(overlaps @ np.exp(-1j * theta * spins)) ** 2)

    gram = overlaps.conj().T @ overlaps
    top = len(spins) - 1
    turns = np.roots([m * np.trace(gram, offset=m) for m in range(top, -top - 1, -1)])
    points = [0.0, *np.sort(np.mod(-np.angle(turns), 2.0 * math.pi)), 2.0 * math.pi]
    values = [infidelity(t) for t in points]
    k = next((k for k in range(1, len(points)) if values[k] >= eps), None)
    if k is None:
        raise InputError(f"coherent rotation cannot reach infidelity {eps}: "
                         f"its maximum over one period is {max(values)!r}")
    lo, hi = points[k - 1], points[k]
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # no float strictly between: the bracket is one ulp wide
            break
        if infidelity(mid) < eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def acceptance_probability(protocol: Protocol, state: PreparedState) -> float:
    """Exact average pass probability tr(Omega sigma).  The white noise sees
    tr(Omega)/d: each test's trace factorizes over its disjoint bonds, and the
    nodes it leaves alone contribute a factor 1."""
    if state.dim != protocol.hamiltonian.dim:
        raise InputError("state dimension does not match the protocol")
    ops = protocol.bond_ops
    trace = sum(p * math.prod(ops[e].trace / ops[e].bond.dim for e in m)
                for m, p in zip(protocol.cover.matchings, protocol.cover.probabilities))
    return state.expectation(protocol.apply_omega, trace)


def run_many(pass_probability: float, n_tests: int, runs: int, seed: int) -> list[int]:
    """The tests passed in each of `runs` independent runs of n_tests tests,
    each passing with probability `pass_probability`: a run passes the tests
    before its first failure, drawn from the geometric law on a substream
    derived from (seed, index), and accepts iff it passes all n_tests."""
    if n_tests < 1:
        raise InputError("need at least one test")
    if not 0 <= pass_probability <= 1:  # also refuses NaN
        raise InputError(f"pass probability {pass_probability!r} outside [0, 1]")
    if pass_probability == 1:  # numpy refuses geometric(0)
        return [n_tests] * runs
    return [min(int(np.random.default_rng([seed, i]).geometric(1.0 - pass_probability)) - 1,
                n_tests) for i in range(runs)]


# isotropic draws compiled into bond tests at a time: a branch of many draws
# would hold that many plans and test matrices per bond, and a few hundred run
# as fast
COMPILE_SLICE = 256


def _pass_probability(state: PreparedState, tests) -> float:
    """Exact pass probability of one test, given as its bond tests
    (plan, tr(R)/d_e) on disjoint bonds."""

    def apply_all(v):
        for plan, _ in tests:
            v = plan(v)
        return v

    # tr(test)/d is a product over the disjoint bonds
    return state.expectation(apply_all, math.prod(t for _, t in tests))


def estimate_pass_rate(protocol: Protocol, state: PreparedState, n_draws: int,
                       seed: int) -> tuple[float, float]:
    """Monte-Carlo single-test pass rate and its standard error.

    Draws how often each test comes up rather than the tests one by one: a
    multinomial splits the draws over the matchings, and each count further
    over each design bond's support points, so every distinct design test
    appears once with its count and its passes are one binomial draw.  Bonds
    with isotropic directions draw them per slice of COMPILE_SLICE draws,
    compiled with one `Protocol.bond_tests` call per bond, and one Bernoulli
    draw per test."""
    if n_draws < 1:
        raise InputError("need at least one draw")
    if state.dim != protocol.hamiltonian.dim:
        raise InputError("state dimension does not match the protocol")
    design = protocol.design_tests
    rng = np.random.default_rng(seed)
    hits = 0
    # weights may sum to 1 +- PROB_SUM_TOL, and numpy refuses any p above 1
    probs = np.asarray(protocol.cover.probabilities)
    for matching, count in zip(protocol.cover.matchings,
                               rng.multinomial(n_draws, probs / probs.sum())):
        branches = [({}, count)] if count else []  # (design bond tests, draws)
        for e in (e for e in matching if e in design):
            w = protocol.bond_ops[e].distribution.weights
            branches = [({**fixed, e: design[e][i]}, c) for fixed, n in branches
                        for i, c in enumerate(rng.multinomial(n, w / w.sum())) if c]
        isotropic = [e for e in matching if e not in design]
        for fixed, n in branches:
            if not isotropic:
                q = _pass_probability(state, [fixed[e] for e in matching])
                hits += int(rng.binomial(n, q))
                continue
            for start in range(0, n, COMPILE_SLICE):
                size = min(COMPILE_SLICE, n - start)
                drawn = {}
                for e in isotropic:
                    v = rng.standard_normal((size, 3))
                    drawn[e] = protocol.bond_tests(e, v / np.linalg.norm(v, axis=1, keepdims=True))
                q = [_pass_probability(state, [fixed[e] if e in fixed else drawn[e][t]
                                               for e in matching]) for t in range(size)]
                hits += int(np.count_nonzero(rng.random(size) < q))
    rate = hits / n_draws
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-12) / n_draws)
    return rate, stderr


def aggregate(passed: Sequence[int], n_tests: int) -> dict:
    """Acceptance-rate summary of runs of n_tests tests, given the tests each
    run passed."""
    if not passed:
        return {"runs": 0, "accepted": 0, "acceptance_rate": None,
                "mean_passed": None}
    accepted = sum(1 for k in passed if k == n_tests)
    return {
        "runs": len(passed),
        "accepted": accepted,
        "acceptance_rate": accepted / len(passed),
        "mean_passed": sum(passed) / len(passed),
    }
