import numpy as np
import pytest

from ffverify import aklt, graph as G, hamiltonian as ham, linalg, protocol as proto
from ffverify import simulate as sim
from ffverify.errors import InputError


@pytest.fixture(scope="module")
def chain4_protocol(chain4, icosahedron):
    return proto.build_protocol(chain4, G.edge_coloring(chain4.graph), icosahedron)


class TestNoiseSpec:
    def test_unknown_mode(self):
        with pytest.raises(InputError):
            sim.NoiseSpec("gaussian", 0.1)

    def test_epsilon_range(self):
        with pytest.raises(InputError):
            sim.NoiseSpec("worst_case", 1.0)
        with pytest.raises(InputError):
            sim.NoiseSpec("worst_case", -0.1)


class TestPrepareState:
    def test_zero_epsilon_is_ground_state(self, chain4, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("worst_case", 0.0))
        _, basis = ham.ground_space(chain4)
        sigma = state.matrix
        expected = np.outer(basis[:, 0], basis[:, 0].conj())
        assert np.max(np.abs(sigma - expected)) < 1e-10

    @pytest.mark.parametrize("mode", sim.NOISE_MODES)
    def test_density_matrix_and_fidelity(self, chain4, chain4_protocol, mode):
        eps = 0.07
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec(mode, eps))
        sigma = state.matrix
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
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("worst_case", eps))
        nu = proto.measured_gap(chain4_protocol)
        exact = sim.acceptance_probability(chain4_protocol, state)
        assert abs(exact - (1 - nu * eps)) < 1e-10

    def test_depolarizing_calibration(self, chain4, chain4_protocol):
        eps = 0.2
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("depolarizing", eps))
        _, basis = ham.ground_space(chain4)
        q0 = basis @ basis.conj().T
        assert abs(np.real(np.trace(q0 @ state.matrix)) - (1 - eps)) < 1e-10

    def test_coherent_rotation_is_pure(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("coherent_rotation", 0.03))
        assert state.ensemble is not None and len(state.ensemble) == 1
        sigma = state.matrix
        purity = float(np.real(np.trace(sigma @ sigma)))
        assert abs(purity - 1) < 1e-9


class TestAcceptanceProbability:
    def test_ground_state_passes_surely(self, chain4, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("worst_case", 0.0))
        assert abs(sim.acceptance_probability(chain4_protocol, state) - 1) < 1e-10

    def test_affine_in_mixtures(self, chain4, chain4_protocol):
        a = sim.prepare_state(chain4_protocol, sim.NoiseSpec("worst_case", 0.1))
        b = sim.prepare_state(chain4_protocol, sim.NoiseSpec("depolarizing", 0.1))
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


def dense_test(protocol, matching, directions) -> np.ndarray:
    """Product of the embedded bond test projectors, built by kron."""
    h = protocol.hamiltonian
    out = np.eye(h.dim)
    for e, r in zip(matching, directions):
        r_e = aklt.bond_test_projector(protocol.bond_ops[e].bond, r)
        local = linalg.LocalOperator(r_e, e, {v: h.node_dims[v] for v in e})
        out = linalg.embed(local, h.node_order, h.node_dims) @ out
    return out


class TestDenseOracle:
    """The matrix-free pass probabilities against tr(A sigma) from dense
    operators and the dense density matrix."""

    @pytest.fixture(scope="class", params=["icosahedron", "isotropic"])
    def protocol(self, request, chain4, icosahedron):
        mu = icosahedron if request.param == "icosahedron" else None
        return proto.build_protocol(chain4, G.edge_coloring(chain4.graph), mu)

    @pytest.mark.parametrize("mode", sim.NOISE_MODES)
    def test_acceptance_probability(self, protocol, mode):
        state = sim.prepare_state(protocol, sim.NoiseSpec(mode, 0.1))
        omega = proto.verification_operator(protocol)
        expected = float(np.real(np.trace(omega @ state.matrix)))
        assert abs(sim.acceptance_probability(protocol, state) - expected) < 1e-12

    @pytest.mark.parametrize("mode", sim.NOISE_MODES)
    def test_pass_probability(self, protocol, mode):
        state = sim.prepare_state(protocol, sim.NoiseSpec(mode, 0.1))
        sampler = sim._TestSampler(protocol, state)
        rng = np.random.default_rng(3)
        for l, matching in enumerate(protocol.cover.matchings):
            dist = protocol.bond_ops[matching[0]].distribution
            if dist is None:  # isotropic: continuous directions, not memoized
                directions = [v / np.linalg.norm(v)
                              for v in rng.standard_normal((len(matching), 3))]
                q = sampler.pass_probability(l, directions=directions)
            else:
                indices = tuple(int(i) for i in rng.integers(len(dist), size=len(matching)))
                directions = [dist.points[i] for i in indices]
                first = sampler.pass_probability(l, direction_indices=indices)
                q = sampler.pass_probability(l, direction_indices=indices)
                assert q == first and (l, indices) in sampler._prob_cache
            t = dense_test(protocol, matching, directions)
            expected = float(np.real(np.trace(t @ state.matrix)))
            assert abs(q - expected) < 1e-12


class TestRunVerification:
    def test_ground_state_always_accepted(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("worst_case", 0.0))
        for seed in range(3):
            result = sim.run_verification(chain4_protocol, state, 200, seed=seed)
            assert result.accepted
            assert result.n_passed == result.n_tests == 200

    def test_deterministic_given_seed(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("worst_case", 0.3))
        a = sim.run_verification(chain4_protocol, state, 100, seed=42)
        b = sim.run_verification(chain4_protocol, state, 100, seed=42)
        assert a == b

    def test_run_many_deterministic(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("worst_case", 0.3))
        a = sim.run_many(chain4_protocol, state, 50, runs=10, seed=9)
        b = sim.run_many(chain4_protocol, state, 50, runs=10, seed=9)
        assert a == b

    def test_monte_carlo_matches_exact(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("worst_case", 0.3))
        exact = sim.acceptance_probability(chain4_protocol, state)
        rate, stderr = sim.estimate_pass_rate(chain4_protocol, state, 20000, seed=5)
        assert abs(rate - exact) < 3 * stderr + 1e-6

    def test_isotropic_bonds_simulable(self, chain4):
        p = proto.build_protocol(chain4, G.trivial_cover(chain4.graph), None)
        state = sim.prepare_state(p, sim.NoiseSpec("worst_case", 0.2))
        exact = sim.acceptance_probability(p, state)
        rate, stderr = sim.estimate_pass_rate(p, state, 4000, seed=6)
        assert abs(rate - exact) < 4 * stderr + 5e-3

    def test_depolarized_state_simulable(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("depolarizing", 0.3))
        exact = sim.acceptance_probability(chain4_protocol, state)
        rate, stderr = sim.estimate_pass_rate(chain4_protocol, state, 2000, seed=7)
        assert abs(rate - exact) < 4 * stderr + 1e-2

    def test_invalid_test_count(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("worst_case", 0.0))
        with pytest.raises(InputError):
            sim.run_verification(chain4_protocol, state, 0, seed=1)

    def test_result_validation(self):
        with pytest.raises(InputError):
            sim.RunResult(n_tests=5, n_passed=6, accepted=True, seed=0)


class TestAggregate:
    def test_empty(self):
        out = sim.aggregate([])
        assert out["runs"] == 0 and out["acceptance_rate"] is None

    def test_counts(self):
        results = [sim.RunResult(10, 10, True, 0), sim.RunResult(10, 3, False, 1)]
        out = sim.aggregate(results)
        assert out["runs"] == 2
        assert out["accepted"] == 1
        assert out["acceptance_rate"] == 0.5
        assert out["mean_passed"] == 6.5


class TestRunSerialization:
    def test_csv(self):
        import csv
        import io
        results = [sim.RunResult(10, 10, True, 0), sim.RunResult(10, 3, False, 0)]
        rows = list(csv.DictReader(io.StringIO(sim.runs_to_csv(results))))
        assert len(rows) == 2
        assert rows[0]["accepted"] == "1"
        assert rows[1]["n_passed"] == "3"

    def test_json(self):
        import json
        results = [sim.RunResult(5, 5, True, 7)]
        data = json.loads(sim.runs_to_json(results))
        assert data["aggregate"]["acceptance_rate"] == 1.0
        assert data["runs"][0]["seed"] == 7
