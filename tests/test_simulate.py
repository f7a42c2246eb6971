import numpy as np
import pytest

from ffverify import aklt, graph as G, hamiltonian as ham, linalg, protocol as proto
from ffverify import cli, simulate as sim
from ffverify.errors import InputError

import oracles
from conftest import open_spin_one_chain, random_unit_vector


@pytest.fixture(scope="module")
def chain4_protocol(chain4, icosahedron):
    return proto.build_protocol(chain4, G.edge_coloring(chain4.graph), icosahedron)


@pytest.fixture
def rotation_angles(monkeypatch) -> list[float]:
    """The angles `prepare_state` rotates node 0 by, recorded as they are solved."""
    angles = []
    solve = sim._solve_rotation_angle

    def recording(*args):
        angles.append(solve(*args))
        return angles[-1]

    monkeypatch.setattr(sim, "_solve_rotation_angle", recording)
    return angles


def rotation_oracle(h):
    """The infidelity 1 - ||Q0 exp(-i theta S_x) psi||^2 of the first ground
    vector rotated on node 0, for an array of angles: each rotation by expm,
    and its action on psi as the sum over matrix units E_ab of
    u_ab (E_ab on node 0) psi, each embedded densely."""
    import scipy.linalg

    _, basis = ham.ground_space(h)
    first = h.node_order[0]
    sx = linalg.spin_operators(h.node_dims[first] - 1)[0]
    n = len(sx)
    overlaps = np.stack([basis.conj().T @ linalg.embed(unit, (first,), h.node_order,
                                                       h.node_dims) @ basis[:, 0]
                         for unit in np.eye(n * n).reshape(n * n, n, n)])

    def infidelity(thetas):
        thetas = np.asarray(thetas, dtype=float)
        u = scipy.linalg.expm(-1j * thetas[:, None, None] * sx)
        return 1.0 - np.linalg.norm(u.reshape(len(thetas), -1) @ overlaps, axis=1) ** 2

    return infidelity


class TestPrepareState:
    def test_unknown_mode(self, chain4_protocol):
        with pytest.raises(InputError, match="unknown noise mode 'gaussian'"):
            sim.prepare_state(chain4_protocol, "gaussian", 0.1)

    def test_epsilon_range(self, chain4_protocol):
        for eps in (1.0, -0.1, float("nan")):
            with pytest.raises(InputError, match=r"noise epsilon must lie in \[0, 1\)"):
                sim.prepare_state(chain4_protocol, "worst_case", eps)

    def test_zero_epsilon_is_ground_state(self, chain4, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, "worst_case", 0.0)
        _, basis = ham.ground_space(chain4)
        sigma = oracles.density_matrix(chain4, state)
        expected = np.outer(basis[:, 0], basis[:, 0].conj())
        assert np.max(np.abs(sigma - expected)) < 1e-10

    @pytest.mark.parametrize("mode", sim.NOISE_MODES)
    def test_density_matrix_and_fidelity(self, chain4, chain4_protocol, mode):
        eps = 0.07
        state = sim.prepare_state(chain4_protocol, mode, eps)
        sigma = oracles.density_matrix(chain4, state)
        assert abs(np.trace(sigma).real - 1) < 1e-10
        vals = np.linalg.eigvalsh(sigma)
        assert vals[0] > -1e-10
        _, basis = ham.ground_space(chain4)
        q0 = basis @ basis.conj().T
        weight = float(np.real(np.trace(q0 @ sigma)))
        assert weight <= 1 - eps + 1e-9
        assert abs(weight - (1 - eps)) < 1e-9  # all three modes calibrate exactly

    def test_worst_case_saturates_pass_law(self, chain4, chain4_protocol):
        eps = 0.05
        state = sim.prepare_state(chain4_protocol, "worst_case", eps)
        nu = proto.measured_gap(chain4_protocol)
        exact = sim.acceptance_probability(chain4_protocol, state)
        assert abs(exact - (1 - nu * eps)) < 1e-10

    def test_depolarizing_calibration(self, chain4, chain4_protocol):
        eps = 0.2
        state = sim.prepare_state(chain4_protocol, "depolarizing", eps)
        _, basis = ham.ground_space(chain4)
        q0 = basis @ basis.conj().T
        sigma = oracles.density_matrix(chain4, state)
        assert abs(np.real(np.trace(q0 @ sigma)) - (1 - eps)) < 1e-10

    def test_depolarizing_zero_hamiltonian(self):
        # over H = 0 only identity bond operators pass every ground state surely
        g = G.chain(3)
        dims = {0: 2, 1: 3, 2: 2}
        zero = {e: np.zeros((dims[e[0]] * dims[e[1]],) * 2) for e in g.edges}
        h = ham.FFHamiltonian(g, zero, dims)
        ops = {e: aklt.BondOperator(aklt.bond(h, e), np.eye(len(zero[e])), None)
               for e in g.edges}
        p = proto.Protocol(h, G.edge_coloring(g), ops)
        with pytest.raises(InputError, match="ground space is the whole space"):
            sim.prepare_state(p, "depolarizing", 0.1)

    def test_coherent_rotation_is_pure(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, "coherent_rotation", 0.03)
        assert state.ensemble is not None and len(state.ensemble) == 1
        sigma = oracles.density_matrix(chain4_protocol.hamiltonian, state)
        purity = float(np.real(np.trace(sigma @ sigma)))
        assert abs(purity - 1) < 1e-9

    @pytest.mark.parametrize("eps", [0.03, 0.2])
    def test_coherent_rotation_angle_matches_brentq(self, chain4, chain4_protocol, eps,
                                                    rotation_angles):
        """The solved angle agrees with scipy's brentq on the full-space
        infidelity, and the state is exp(-i theta S_x), by expm, on the first
        node."""
        import scipy.linalg
        import scipy.optimize

        _, basis = ham.ground_space(chain4)
        first = chain4.node_order[0]
        sx = linalg.spin_operators(chain4.node_dims[first] - 1)[0]

        def rotated(theta):
            u = scipy.linalg.expm(-1j * theta * sx)
            full = linalg.embed(u, (first,), chain4.node_order, chain4.node_dims)
            return full @ basis[:, 0]

        oracle = rotation_oracle(chain4)
        hi = 1e-3
        while oracle([hi])[0] < eps:
            hi *= 2.0
        expected = scipy.optimize.brentq(lambda t: oracle([t])[0] - eps, 0.0, hi, xtol=1e-14)
        state = sim.prepare_state(chain4_protocol, "coherent_rotation", eps)
        assert abs(rotation_angles[-1] - expected) < 1e-12
        assert np.abs(state.ensemble[0][1] - rotated(expected)).max() < 1e-12

    @pytest.mark.parametrize("closed, eps", [(True, 0.9995), (True, 0.99999), (False, 0.9)],
                             ids=["closed-0.9995", "closed-0.99999", "open-0.9"])
    def test_coherent_rotation_past_the_doublings(self, icosahedron, closed, eps):
        """Infidelities near the peak, far from the angle 0.  On the closed
        chain the overlap is (1 + 2 cos theta)/3, so the infidelity peaks at 1
        at 2 pi/3; on the open chain's spin-1/2 end it is sin^2(theta/2),
        which peaks at pi."""
        h = aklt.aklt_hamiltonian(G.chain(4, closed=closed))
        p = proto.build_protocol(h, G.edge_coloring(h.graph), icosahedron)
        state = sim.prepare_state(p, "coherent_rotation", eps)
        _, basis = ham.ground_space(h)
        v = state.ensemble[0][1]
        assert abs(1.0 - np.linalg.norm(basis.conj().T @ v) ** 2 - eps) < 1e-10

    @pytest.mark.parametrize("n, closed", [(4, True), (5, False)], ids=["closed-4", "open-5"])
    def test_coherent_rotation_angle_is_the_least(self, icosahedron, rotation_angles, n,
                                                  closed):
        """The solved angle reaches eps on the full-space oracle, and no angle
        of a 10^4-point grid on (0, theta) does."""
        h = aklt.aklt_hamiltonian(G.chain(n, closed=closed))
        p = proto.build_protocol(h, G.edge_coloring(h.graph), icosahedron)
        infidelity = rotation_oracle(h)
        for eps in (0.01, 0.2, 0.5, 0.9, 0.999):
            sim.prepare_state(p, "coherent_rotation", eps)
            theta = rotation_angles[-1]
            assert abs(infidelity([theta])[0] - eps) < 1e-10
            assert infidelity(np.linspace(0.0, theta, 10**4 + 2)[1:-1]).max() < eps

    @pytest.mark.parametrize("eps, code", [("0.9995", 0), ("0.9999999999", 0)])
    def test_coherent_rotation_exit_codes(self, capsys, chain4, chain4_protocol, eps, code):
        """The closed chain of 4 reaches every infidelity below its peak 1 at
        2 pi/3, however close to it."""
        assert cli.main(["simulate", "--chain", "4", "--closed", "--noise",
                         "coherent_rotation", "--noise-epsilon", eps, "--runs", "1",
                         "--tests", "5", "--pass-draws", "10"]) == code
        assert capsys.readouterr().err == ""
        state = sim.prepare_state(chain4_protocol, "coherent_rotation", float(eps))
        _, basis = ham.ground_space(chain4)
        v = state.ensemble[0][1]
        assert abs(1.0 - np.linalg.norm(basis.conj().T @ v) ** 2 - float(eps)) < 1e-10

    def test_coherent_rotation_refuses_eps_above_its_maximum(self, icosahedron):
        """The open spin-1 chain of 3 with free ends has ground rank 4, and
        rotating node 0 leaves at least 1/9 of the weight in the ground space:
        eps = 0.9 is refused with the maximum 8/9 in the message."""
        g = G.chain(3)
        h = ham.FFHamiltonian(g, {e: aklt.coupled_spin_projector(2, 2) for e in g.edges},
                              {v: 3 for v in range(3)})
        assert ham.ground_space(h)[0] == 4
        p = proto.build_protocol(h, G.edge_coloring(g), icosahedron)
        with pytest.raises(InputError, match="cannot reach infidelity 0.9: its maximum over "
                                             "one period is ") as info:
            sim.prepare_state(p, "coherent_rotation", 0.9)
        assert abs(float(str(info.value).rsplit(" ", 1)[1]) - 8 / 9) < 1e-12


class TestAcceptanceProbability:
    def test_ground_state_passes_surely(self, chain4, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, "worst_case", 0.0)
        assert abs(sim.acceptance_probability(chain4_protocol, state) - 1) < 1e-10

    def test_affine_in_mixtures(self, chain4, chain4_protocol):
        a = sim.prepare_state(chain4_protocol, "worst_case", 0.1)
        b = sim.prepare_state(chain4_protocol, "depolarizing", 0.1)
        pa = sim.acceptance_probability(chain4_protocol, a)
        pb = sim.acceptance_probability(chain4_protocol, b)
        assert a.white == 0 and b.white > 0
        for lam in (0.25, 0.5, 0.75):
            mixed = sim.PreparedState(
                a.dim,
                tuple((lam * w, v) for w, v in a.ensemble)
                + tuple(((1 - lam) * w, v) for w, v in b.ensemble),
                white=lam * a.white + (1 - lam) * b.white)
            pm = sim.acceptance_probability(chain4_protocol, mixed)
            assert abs(pm - (lam * pa + (1 - lam) * pb)) < 1e-10

    def test_dimension_mismatch(self, chain4_protocol):
        with pytest.raises(InputError):
            sim.acceptance_probability(chain4_protocol,
                                       sim.PreparedState(4, (), white=1.0))

    def test_estimate_refuses_a_foreign_state(self, chain4_protocol):
        foreign = sim.PreparedState(4, ((0.5, np.full(4, 0.5)),))
        with pytest.raises(InputError, match="state dimension does not match the protocol"):
            sim.acceptance_probability(chain4_protocol, foreign)
        with pytest.raises(InputError, match="state dimension does not match the protocol"):
            sim.estimate_pass_rate(chain4_protocol, foreign, 100, seed=1)


class TestPreparedStateWeights:
    """The weight left over is the target-space part, so the weights must
    leave a nonnegative one."""

    @pytest.mark.parametrize("ensemble, white", [
        (((-0.1, np.ones(4) / 2),), 0.0), ((), -0.1), (((0.6, np.ones(4) / 2),), 0.5),
        ((), float("nan"))], ids=["negative-vector", "negative-white", "above-1", "nan"])
    def test_refused(self, ensemble, white):
        with pytest.raises(InputError, match="must be nonnegative, summing to <= 1"):
            sim.PreparedState(4, ensemble, white=white)

    def test_target_part_passes_surely(self):
        def never(v):
            raise AssertionError("the target part needs no operator apply")

        assert sim.PreparedState(4, ()).expectation(never, 0.3) == 1.0
        assert sim.PreparedState(4, (), white=0.25).expectation(never, 0.5) == 0.875

    def test_worst_case_and_noiseless_need_no_ground_basis(self, chain4_protocol,
                                                           monkeypatch):
        def forbidden(h):
            raise AssertionError("ground_space called")

        monkeypatch.setattr(sim, "ground_space", forbidden)
        for mode in sim.NOISE_MODES:
            assert sim.prepare_state(chain4_protocol, mode, 0.0).ensemble == ()
        state = sim.prepare_state(chain4_protocol, "worst_case", 0.1)
        assert [w for w, _ in state.ensemble] == [0.1] and state.white == 0.0


#: instances whose every bond test must fix the dense ground projector; the
#: open spin-1 chain's ground space has rank 4
INVARIANT_INSTANCES = {
    "closed-chain-4": lambda: aklt.aklt_hamiltonian(G.chain(4, closed=True)),
    "open-chain-5": lambda: aklt.aklt_hamiltonian(G.chain(5)),
    "honeycomb-2x1": lambda: aklt.aklt_hamiltonian(G.honeycomb_lattice(2, 1)),
    "open-spin-1-chain-4": lambda: open_spin_one_chain(4),
}


class TestTargetPartPassesSurely:
    """The invariant a prepared state's target part rests on, against the dense
    ground projector: every bond test fixes it, so the target part passes
    every test and Omega surely."""

    @pytest.fixture(scope="class", params=sorted(INVARIANT_INSTANCES))
    def instance(self, request):
        h = INVARIANT_INSTANCES[request.param]()
        return h, oracles.ground_projector(h)

    def test_every_bond_test_fixes_the_ground_space(self, instance, icosahedron):
        h, q0 = instance
        rng = np.random.default_rng(17)
        for e in h.graph.edges:
            isotropic = rng.standard_normal((20, 3))
            directions = np.concatenate(
                [icosahedron.points, isotropic / np.linalg.norm(isotropic, axis=1, keepdims=True)])
            for r in aklt.bond_test_projector(aklt.bond(h, e), directions):
                assert np.linalg.norm(oracles.embedded(h, r, e) @ q0 - q0, 2) < 1e-12

    @pytest.mark.parametrize("design", ["icosahedron", "isotropic"])
    def test_noiseless_state_passes_surely(self, instance, design):
        h, _ = instance
        mu = None if design == "isotropic" else aklt.design_catalog(design)
        p = proto.build_protocol(h, G.edge_coloring(h.graph), mu)
        state = sim.prepare_state(p, "worst_case", 0.0)
        assert state.ensemble == () and state.white == 0.0
        assert sim.acceptance_probability(p, state) == 1.0
        assert sim.estimate_pass_rate(p, state, 100, seed=1)[0] == 1.0

    @pytest.mark.parametrize("mode", ["worst_case", "depolarizing"])
    def test_acceptance_probability_against_dense(self, instance, icosahedron, mode):
        h, q0 = instance
        p = proto.build_protocol(h, G.edge_coloring(h.graph), icosahedron)
        state = sim.prepare_state(p, mode, 0.1)
        sigma = oracles.density_matrix(h, state)
        assert abs(np.real(np.trace(q0 @ sigma)) - 0.9) < 1e-12
        expected = float(np.real(np.trace(oracles.omega(p) @ sigma)))
        assert abs(sim.acceptance_probability(p, state) - expected) < 1e-12


class TestDenseOracle:
    """The matrix-free pass probabilities against tr(A sigma) from dense
    operators and the dense density matrix."""

    @pytest.fixture(scope="class", params=["icosahedron", "isotropic"])
    def protocol(self, request, chain4, icosahedron):
        mu = icosahedron if request.param == "icosahedron" else None
        return proto.build_protocol(chain4, G.edge_coloring(chain4.graph), mu)

    @pytest.mark.parametrize("mode", sim.NOISE_MODES)
    def test_acceptance_probability(self, protocol, mode):
        state = sim.prepare_state(protocol, mode, 0.1)
        omega = oracles.omega(protocol)
        sigma = oracles.density_matrix(protocol.hamiltonian, state)
        expected = float(np.real(np.trace(omega @ sigma)))
        assert abs(sim.acceptance_probability(protocol, state) - expected) < 1e-12

    @pytest.mark.parametrize("mode", sim.NOISE_MODES)
    def test_pass_probability(self, protocol, mode):
        state = sim.prepare_state(protocol, mode, 0.1)
        sigma = oracles.density_matrix(protocol.hamiltonian, state)
        rng = np.random.default_rng(3)
        for matching in protocol.cover.matchings:
            for _ in range(4):
                directions, tests = [], []
                for e in matching:
                    dist = protocol.bond_ops[e].distribution
                    if dist is None:  # isotropic: a continuous direction
                        directions.append(random_unit_vector(rng))
                        tests.append(protocol.bond_tests(e, [directions[-1]])[0])
                    else:
                        i = int(rng.integers(len(dist)))
                        directions.append(dist.points[i])
                        tests.append(protocol.design_tests[e][i])
                t = oracles.local_product(protocol.hamiltonian, [
                    (aklt.bond_test_projector(protocol.bond_ops[e].bond, r), e)
                    for e, r in zip(matching, directions)])
                expected = float(np.real(np.trace(t @ sigma)))
                assert abs(sim._pass_probability(state, tests) - expected) < 1e-12


class TestMixedMatching:
    """Matchings that pair an icosahedron bond with an isotropic bond: tests
    mixing design bond tests with bond tests built per draw."""

    @pytest.fixture(scope="class")
    def mixed(self, chain4, icosahedron):
        cover = G.edge_coloring(chain4.graph)
        assert all(len(m) == 2 for m in cover.matchings)
        design_edges = {m[0] for m in cover.matchings}
        ops = {}
        for e in chain4.graph.edges:
            b = aklt.bond(chain4, e)
            ops[e] = (aklt.bond_operator(b, icosahedron) if e in design_edges
                      else aklt.isotropic_bond_operator(b))
        return proto.Protocol(chain4, cover, ops)

    @pytest.fixture(scope="class")
    def state(self, mixed):
        return sim.prepare_state(mixed, "worst_case", 0.3)

    def test_pass_probability(self, mixed, state, icosahedron):
        rng = np.random.default_rng(12)
        density = oracles.density_matrix(mixed.hamiltonian, state)
        for e, f in mixed.cover.matchings:  # e carries the design, f is isotropic
            for _ in range(3):
                i = int(rng.integers(len(icosahedron)))
                r = random_unit_vector(rng)
                q = sim._pass_probability(state, [mixed.design_tests[e][i],
                                                  mixed.bond_tests(f, [r])[0]])
                t = oracles.local_product(mixed.hamiltonian, [
                    (aklt.bond_test_projector(mixed.bond_ops[e].bond, icosahedron.points[i]), e),
                    (aklt.bond_test_projector(mixed.bond_ops[f].bond, r), f)])
                assert abs(q - float(np.real(np.trace(t @ density)))) < 1e-12

    def test_estimate_pass_rate(self, mixed, state):
        exact = sim.acceptance_probability(mixed, state)
        rate, stderr = sim.estimate_pass_rate(mixed, state, 3000, seed=13)
        assert abs(rate - exact) < 4 * stderr


class TestRunVerification:
    def test_ground_state_always_accepted(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, "worst_case", 0.0)
        p = sim.acceptance_probability(chain4_protocol, state)
        assert sim.run_many(p, 200, runs=3, seed=0) == [200] * 3

    def test_deterministic_given_seed(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, "worst_case", 0.3)
        p = sim.acceptance_probability(chain4_protocol, state)
        a = sim.run_many(p, 100, runs=10, seed=42)
        b = sim.run_many(p, 100, runs=10, seed=42)
        other = sim.run_many(p, 100, runs=10, seed=43)
        assert a == b
        assert a != other

    def test_run_many_deterministic(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, "worst_case", 0.3)
        p = sim.acceptance_probability(chain4_protocol, state)
        a = sim.run_many(p, 50, runs=10, seed=9)
        b = sim.run_many(p, 50, runs=10, seed=9)
        assert a == b

    def test_runs_are_independent_substreams(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, "worst_case", 0.3)
        p = sim.acceptance_probability(chain4_protocol, state)
        five = sim.run_many(p, 200, runs=5, seed=9)
        ten = sim.run_many(p, 200, runs=10, seed=9)
        assert ten[:5] == five

    def test_monte_carlo_matches_exact(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, "worst_case", 0.3)
        exact = sim.acceptance_probability(chain4_protocol, state)
        rate, stderr = sim.estimate_pass_rate(chain4_protocol, state, 20000, seed=5)
        assert abs(rate - exact) < 3 * stderr + 1e-6

    def test_isotropic_bonds_simulable(self, chain4):
        p = proto.build_protocol(chain4, G.trivial_cover(chain4.graph), None)
        state = sim.prepare_state(p, "worst_case", 0.2)
        exact = sim.acceptance_probability(p, state)
        rate, stderr = sim.estimate_pass_rate(p, state, 4000, seed=6)
        assert abs(rate - exact) < 4 * stderr + 5e-3

    def test_depolarized_state_simulable(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, "depolarizing", 0.3)
        exact = sim.acceptance_probability(chain4_protocol, state)
        rate, stderr = sim.estimate_pass_rate(chain4_protocol, state, 2000, seed=7)
        assert abs(rate - exact) < 4 * stderr + 1e-2

    def test_invalid_test_count(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, "worst_case", 0.0)
        with pytest.raises(InputError):
            sim.run_many(sim.acceptance_probability(chain4_protocol, state), 0, runs=1, seed=1)

    @pytest.mark.parametrize("p", [-0.1, 1.1, float("nan")])
    def test_invalid_pass_probability(self, p):
        with pytest.raises(InputError, match="pass probability"):
            sim.run_many(p, 10, runs=1, seed=1)

    def test_no_draws(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, "worst_case", 0.0)
        with pytest.raises(InputError, match="need at least one draw"):
            sim.estimate_pass_rate(chain4_protocol, state, 0, seed=1)


def truncated_geometric(q: float, n: int) -> np.ndarray:
    """P(n_passed = k), k = 0..n, for n i.i.d. tests passing with probability q
    and a run that stops at its first failure."""
    k = np.arange(n + 1)
    return np.where(k < n, q ** k * (1 - q), q ** n)


class TestExactLaw:
    """n_passed per run against the truncated geometric law of i.i.d. tests."""

    @pytest.fixture(scope="class")
    def noisy(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, "worst_case", 0.3)
        return state, sim.acceptance_probability(chain4_protocol, state)

    def test_histogram_chi_square(self, chain4_protocol, noisy):
        import scipy.stats

        _, q = noisy
        assert abs(q - 0.98) < 1e-3
        n, runs = 50, 2000
        level = 1e-3  # significance fixed before the draw
        passed = sim.run_many(q, n, runs=runs, seed=424242)
        observed = np.bincount(passed, minlength=n + 1)
        expected = runs * truncated_geometric(q, n)
        # merge neighbouring bins until every expected count is at least 5
        obs_bins, exp_bins, o, e = [], [], 0, 0.0
        for ob, ex in zip(observed, expected):
            o, e = o + ob, e + ex
            if e >= 5:
                obs_bins.append(o)
                exp_bins.append(e)
                o, e = 0, 0.0
        obs_bins[-1] += o
        exp_bins[-1] += e
        obs_bins, exp_bins = np.array(obs_bins), np.array(exp_bins)
        assert exp_bins.min() >= 5 and len(exp_bins) > 10
        stat = float(np.sum((obs_bins - exp_bins) ** 2 / exp_bins))
        assert stat < scipy.stats.chi2.isf(level, len(exp_bins) - 1)

    @pytest.mark.parametrize("n", [1, 64, 65])
    def test_block_edges(self, chain4_protocol, noisy, n):
        _, q = noisy
        passed = sim.run_many(q, n, runs=400, seed=n)
        assert all(0 <= k <= n for k in passed)
        accepted = passed.count(n)
        assert 0 < accepted < len(passed)
        # acceptance rate q^n within 4 sigma
        p = q ** n
        assert abs(accepted / len(passed) - p) <= 4 * np.sqrt(p * (1 - p) / len(passed))

    def test_ground_state_block_edges(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, "worst_case", 0.0)
        p = sim.acceptance_probability(chain4_protocol, state)
        assert p == 1.0  # a sure pass, which draws no first failure
        for n in (1, 64, 65, 12289):
            assert sim.run_many(p, n, runs=20, seed=n) == [n] * 20

    def test_sure_failure_passes_no_test(self):
        for n in (1, 65, 12289):
            assert sim.run_many(0.0, n, runs=20, seed=n) == [0] * 20


class TestEstimateSampler:
    def test_estimate_evaluates_each_test_once(self, chain4_protocol, monkeypatch):
        """The pass-rate estimate evaluates each distinct design test once."""
        state = sim.prepare_state(chain4_protocol, "worst_case", 0.3)
        evaluated = []
        evaluate = sim._pass_probability

        def counting(state, tests):
            evaluated.append(tuple(id(plan) for plan, _ in tests))
            return evaluate(state, tests)

        monkeypatch.setattr(sim, "_pass_probability", counting)
        sim.estimate_pass_rate(chain4_protocol, state, 20000, seed=1)
        # every icosahedron pair of 2 matchings, each evaluated once
        assert len(evaluated) == len(set(evaluated)) == 288

    def test_a_billion_design_draws(self, chain4_protocol):
        """Design draws cost by distinct test, not by draw."""
        import time

        state = sim.prepare_state(chain4_protocol, "worst_case", 0.3)
        exact = sim.acceptance_probability(chain4_protocol, state)
        start = time.perf_counter()
        rate, stderr = sim.estimate_pass_rate(chain4_protocol, state, 10**9, seed=3)
        assert time.perf_counter() - start < 1.0
        assert abs(rate - exact) < 4 * stderr


class TestEstimateLaw:
    """The estimate's hit count against Binomial(n, tr(Omega sigma)): its
    mean and variance over fixed seeds, each by chi-square at level 1e-3."""

    @pytest.mark.parametrize("design, mode, n_draws", [
        ("icosahedron", "worst_case", 100), ("isotropic", "worst_case", 40),
        ("icosahedron", "depolarizing", 100)])
    def test_mean_and_variance_are_binomial(self, chain4, design, mode, n_draws):
        import scipy.stats

        mu = None if design == "isotropic" else aklt.design_catalog(design)
        p = proto.build_protocol(chain4, G.edge_coloring(chain4.graph), mu)
        state = sim.prepare_state(p, mode, 0.9)
        q = sim.acceptance_probability(p, state)
        seeds, level = 80, 1e-3
        hits = np.array([round(sim.estimate_pass_rate(p, state, n_draws, seed)[0] * n_draws)
                         for seed in range(seeds)])
        var = n_draws * q * (1 - q)
        mean_stat = seeds * (hits.mean() - n_draws * q) ** 2 / var
        assert mean_stat < scipy.stats.chi2.isf(level, 1)
        var_stat = (seeds - 1) * hits.var(ddof=1) / var
        assert (scipy.stats.chi2.ppf(level / 2, seeds - 1) < var_stat
                < scipy.stats.chi2.isf(level / 2, seeds - 1))


class TestToleranceEdge:
    """Probabilities that validation admits, summing to just above 1."""

    def test_cover_probabilities_above_one(self, chain4, icosahedron):
        # 1 + 1e-12 itself sums to 1.00009e-12 above 1 and the cover refuses it
        cover = G.MatchingCover((((0, 1), (2, 3)), ((0, 3), (1, 2))), (1 + 9e-13, 0.0))
        p = proto.build_protocol(chain4, cover, icosahedron)
        state = sim.prepare_state(p, "depolarizing", 0.3)
        rate, stderr = sim.estimate_pass_rate(p, state, 2000, seed=1)
        assert abs(rate - sim.acceptance_probability(p, state)) < 4 * stderr

    def test_design_weights_above_one(self, chain4, tmp_path):
        import json

        path = tmp_path / "two_points.json"
        path.write_text(json.dumps({"points": [[0, 0, 1], [1, 0, 0]],
                                    "weights": [1 + 5e-13, 0.0]}))
        mu = aklt.DirectionDistribution.from_file(path)
        p = proto.build_protocol(chain4, G.edge_coloring(chain4.graph), mu)
        state = sim.prepare_state(p, "depolarizing", 0.3)
        rate, stderr = sim.estimate_pass_rate(p, state, 2000, seed=1)
        assert abs(rate - sim.acceptance_probability(p, state)) < 4 * stderr


class TestUnmemoizedTests:
    """Tests drawn per slice (isotropic bonds), empty matchings, and the
    tests `ffv simulate` evaluates."""

    def test_isotropic_compiles_at_most_one_slice(self, chain4, monkeypatch):
        """Isotropic draws are compiled slice by slice: every draw once per
        bond, and no bond_tests call compiles more than COMPILE_SLICE."""
        p = proto.build_protocol(chain4, G.edge_coloring(chain4.graph), None)
        state = sim.prepare_state(p, "worst_case", 0.3)
        compiled = []
        bond_tests = proto.Protocol.bond_tests

        def recording(self, e, directions):
            compiled.append(len(directions))
            return bond_tests(self, e, directions)

        monkeypatch.setattr(proto.Protocol, "bond_tests", recording)
        n_draws = 4 * sim.COMPILE_SLICE + 3
        sim.estimate_pass_rate(p, state, n_draws, seed=5)
        assert sum(compiled) == 2 * n_draws  # two bonds per matching
        assert max(compiled) == sim.COMPILE_SLICE

    def test_empty_matching(self, chain4, icosahedron):
        # a cover may hold an empty matching: its test passes surely
        cover = G.MatchingCover((((0, 1), (2, 3)), ((0, 3), (1, 2)), ()), (0.4, 0.4, 0.2))
        p = proto.build_protocol(chain4, cover, icosahedron)
        state = sim.prepare_state(p, "worst_case", 0.3)
        exact = sim.acceptance_probability(p, state)
        rate, stderr = sim.estimate_pass_rate(p, state, 2000, seed=4)
        assert abs(rate - exact) < 4 * stderr

    def test_cli_runs_evaluate_no_test(self, monkeypatch, capsys):
        """`ffv simulate` draws its runs from the geometric law: the only test
        it evaluates is the pass-rate estimate's one draw."""
        calls = []
        evaluate = sim._pass_probability

        def counting(state, tests):
            calls.append(tests)
            return evaluate(state, tests)

        monkeypatch.setattr(sim, "_pass_probability", counting)
        assert cli.main(["simulate", "--chain", "4", "--closed", "--design", "isotropic",
                         "--runs", "50", "--tests", "100", "--pass-draws", "1"]) == 0
        capsys.readouterr()
        assert len(calls) == 1


class TestBondTestsBuiltOnce:
    """Design bond tests come from Protocol.design_tests, built once per
    protocol."""

    def test_cli_simulate_projector_count(self, monkeypatch, capsys):
        calls = []
        build = proto.bond_test_projector

        def counting(b, direction):
            calls.append(b.edge)
            return build(b, direction)

        # the estimate reaches bond test projectors only through the protocol
        assert not hasattr(sim, "bond_test_projector")
        monkeypatch.setattr(proto, "bond_test_projector", counting)
        assert cli.main(["simulate", "--chain", "4", "--closed", "--noise-epsilon", "0.3",
                         "--runs", "50", "--pass-draws", "20000"]) == 0
        capsys.readouterr()
        assert 0 < len(calls) <= 48  # 4 edges x 12 icosahedron points


class TestCliRunsFromPrintedProbability:
    @pytest.mark.parametrize("flags", [("--noise", m) for m in sim.NOISE_MODES]
                             + [("--design", "isotropic")], ids=" ".join)
    def test_per_run_follows_exact_pass_probability(self, capsys, flags):
        """`ffv simulate` draws its runs from the pass probability it prints."""
        import json

        assert cli.main(["simulate", "--chain", "4", "--closed", "--noise-epsilon", "0.3",
                         "--runs", "30", "--tests", "10", "--pass-draws", "10",
                         "--seed", "11", *flags]) == 0
        data = json.loads(capsys.readouterr().out)
        expected = sim.run_many(data["exact_pass_probability"], 10, 30, 11)
        assert data["per_run"] == [{"run": i, "n_tests": 10, "n_passed": k,
                                    "accepted": k == 10, "seed": 11}
                                   for i, k in enumerate(expected)]
        assert 0 < data["accepted"] < 30  # the runs are neither all passed nor all failed


class TestAggregate:
    def test_empty(self):
        out = sim.aggregate([], 10)
        assert out["runs"] == 0 and out["acceptance_rate"] is None

    def test_counts(self):
        out = sim.aggregate([10, 3], 10)
        assert out["runs"] == 2
        assert out["accepted"] == 1
        assert out["acceptance_rate"] == 0.5
        assert out["mean_passed"] == 6.5


class TestRunSerialization:
    """simulate's per-run rows as `ffv simulate` prints them, for given runs."""

    @staticmethod
    def printed(monkeypatch, capsys, passed, *flags):
        monkeypatch.setattr(sim, "run_many", lambda *args: passed)
        assert cli.main(["simulate", "--chain", "4", "--closed", "--runs", "2",
                         "--tests", "5", "--pass-draws", "10", *flags]) == 0
        return capsys.readouterr().out

    def test_csv(self, monkeypatch, capsys):
        import csv
        import io
        out = self.printed(monkeypatch, capsys, [5, 3], "--format", "csv")
        assert out.splitlines()[0] == "run,n_tests,n_passed,accepted,seed"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[0]["accepted"] == "1" and rows[1]["accepted"] == "0"
        assert rows[1]["n_passed"] == "3"

    def test_json(self, monkeypatch, capsys):
        import json
        records = json.loads(self.printed(monkeypatch, capsys, [5, 2], "--seed", "7"))["per_run"]
        # printed with sorted keys
        assert list(records[0]) == ["accepted", "n_passed", "n_tests", "run", "seed"]
        assert records[0] == {"run": 0, "n_tests": 5, "n_passed": 5, "accepted": True,
                              "seed": 7}
        assert records[1]["run"] == 1 and records[1]["accepted"] is False
