import numpy as np
import pytest

from ffverify import aklt, graph as G, hamiltonian as ham, linalg, protocol as proto
from ffverify import simulate as sim
from ffverify.errors import InputError

import oracles
from conftest import random_unit_vector


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
        sigma = oracles.density_matrix(state)
        expected = np.outer(basis[:, 0], basis[:, 0].conj())
        assert np.max(np.abs(sigma - expected)) < 1e-10

    @pytest.mark.parametrize("mode", sim.NOISE_MODES)
    def test_density_matrix_and_fidelity(self, chain4, chain4_protocol, mode):
        eps = 0.07
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec(mode, eps))
        sigma = oracles.density_matrix(state)
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
        assert abs(np.real(np.trace(q0 @ oracles.density_matrix(state))) - (1 - eps)) < 1e-10

    def test_depolarizing_zero_hamiltonian(self, icosahedron):
        g = G.chain(3)
        dims = {0: 2, 1: 3, 2: 2}
        zero = {e: np.zeros((dims[e[0]] * dims[e[1]],) * 2) for e in g.edges}
        h = ham.FFHamiltonian(g, zero, dims)
        p = proto.build_protocol(h, G.edge_coloring(g), icosahedron)
        with pytest.raises(InputError, match="ground space is the whole space"):
            sim.prepare_state(p, sim.NoiseSpec("depolarizing", 0.1))

    def test_coherent_rotation_is_pure(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("coherent_rotation", 0.03))
        assert state.ensemble is not None and len(state.ensemble) == 1
        sigma = oracles.density_matrix(state)
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
        omega = oracles.omega(protocol)
        expected = float(np.real(np.trace(omega @ oracles.density_matrix(state))))
        assert abs(sim.acceptance_probability(protocol, state) - expected) < 1e-12

    @pytest.mark.parametrize("mode", sim.NOISE_MODES)
    def test_pass_probability(self, protocol, mode):
        state = sim.prepare_state(protocol, sim.NoiseSpec(mode, 0.1))
        sampler = sim._TestSampler(protocol, state)
        rng = np.random.default_rng(3)
        for l, matching in enumerate(protocol.cover.matchings):
            dist = protocol.bond_ops[matching[0]].distribution
            if dist is None:  # isotropic: continuous directions, no table
                directions = [v / np.linalg.norm(v)
                              for v in rng.standard_normal((len(matching), 3))]
                q = sampler.pass_probability([protocol.bond_test(e, r)
                                              for e, r in zip(matching, directions)])
                checked = [(directions, q)]
            else:
                block = sampler._matching_block(l, matching, rng, 16)
                table = sampler._tables[l]
                filled = [tuple(i) for i in np.argwhere(~np.isnan(table))]
                assert 0 < len(filled) <= 16  # the drawn tests, filled in the table
                assert set(block) == {table[i] for i in filled}
                checked = []
                for indices in filled:
                    q = sampler.pass_probability([protocol.design_tests[e][i]
                                                  for e, i in zip(matching, indices)])
                    assert table[indices] == q
                    checked.append(([dist.points[i] for i in indices], q))
            for directions, q in checked:
                t = oracles.local_product(protocol.hamiltonian, [
                    (aklt.bond_test_projector(protocol.bond_ops[e].bond, r), e)
                    for e, r in zip(matching, directions)])
                expected = float(np.real(np.trace(t @ oracles.density_matrix(state))))
                assert abs(q - expected) < 1e-12


class TestMixedMatching:
    """Matchings that pair an icosahedron bond with an isotropic bond: untabled
    tests mixing design bond tests with bond tests built per draw."""

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
        return sim.prepare_state(mixed, sim.NoiseSpec("worst_case", 0.3))

    def test_pass_probability(self, mixed, state, icosahedron):
        sampler = sim._TestSampler(mixed, state)
        assert not sampler.memoized
        rng = np.random.default_rng(12)
        density = oracles.density_matrix(state)
        for e, f in mixed.cover.matchings:  # e carries the design, f is isotropic
            for _ in range(3):
                i = int(rng.integers(len(icosahedron)))
                r = random_unit_vector(rng)
                q = sampler.pass_probability([mixed.design_tests[e][i], mixed.bond_test(f, r)])
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

    def test_runs_are_independent_substreams(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("worst_case", 0.3))
        five = sim.run_many(chain4_protocol, state, 200, runs=5, seed=9)
        ten = sim.run_many(chain4_protocol, state, 200, runs=10, seed=9)
        assert ten[:5] == five

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


def truncated_geometric(q: float, n: int) -> np.ndarray:
    """P(n_passed = k), k = 0..n, for n i.i.d. tests passing with probability q
    and a run that stops at its first failure."""
    k = np.arange(n + 1)
    return np.where(k < n, q ** k * (1 - q), q ** n)


class TestExactLaw:
    """n_passed per run against the truncated geometric law of i.i.d. tests."""

    @pytest.fixture(scope="class")
    def noisy(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("worst_case", 0.3))
        return state, sim.acceptance_probability(chain4_protocol, state)

    def test_histogram_chi_square(self, chain4_protocol, noisy):
        import scipy.stats

        state, q = noisy
        assert abs(q - 0.98) < 1e-3
        n, runs = 50, 2000
        level = 1e-3  # significance fixed before the draw
        results = sim.run_many(chain4_protocol, state, n, runs=runs, seed=424242)
        observed = np.bincount([r.n_passed for r in results], minlength=n + 1)
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

    @pytest.mark.parametrize("n", [1, sim.FIRST_BLOCK, sim.FIRST_BLOCK + 1])
    def test_block_edges(self, chain4_protocol, noisy, n):
        state, q = noisy
        results = sim.run_many(chain4_protocol, state, n, runs=400, seed=n)
        for r in results:
            assert 0 <= r.n_passed <= n and r.n_tests == n
            assert r.accepted == (r.n_passed == n)
        accepted = sum(r.accepted for r in results)
        assert 0 < accepted < len(results)
        # acceptance rate q^n within 4 sigma
        p = q ** n
        assert abs(accepted / len(results) - p) <= 4 * np.sqrt(p * (1 - p) / len(results))

    def test_ground_state_block_edges(self, chain4_protocol):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("worst_case", 0.0))
        for n in (1, sim.FIRST_BLOCK, sim.FIRST_BLOCK + 1, 3 * sim.MAX_BLOCK + 1):
            (r,) = sim.run_many(chain4_protocol, state, n, runs=1, seed=0)
            assert r.accepted and r.n_passed == n


class TestUnmemoizedTests:
    """Tests outside the probability tables: isotropic bonds, and design bonds
    whose combinations exceed MEMO_TABLE_LIMIT."""

    def test_oversized_tables_evaluate_per_test(self, chain4_protocol, monkeypatch):
        state = sim.prepare_state(chain4_protocol, sim.NoiseSpec("worst_case", 0.3))
        memo = sim.estimate_pass_rate(chain4_protocol, state, 1000, seed=8)
        monkeypatch.setattr(sim, "MEMO_TABLE_LIMIT", 100)  # chain 4 tables hold 144
        assert not sim._TestSampler(chain4_protocol, state).memoized
        # the same draws, each evaluated exactly without a table
        assert sim.estimate_pass_rate(chain4_protocol, state, 1000, seed=8) == memo

    def test_empty_matching(self, chain4, icosahedron):
        # a cover may hold an empty matching: its test passes surely
        cover = G.MatchingCover((((0, 1), (2, 3)), ((0, 3), (1, 2)), ()), (0.4, 0.4, 0.2))
        p = proto.build_protocol(chain4, cover, icosahedron)
        state = sim.prepare_state(p, sim.NoiseSpec("worst_case", 0.3))
        exact = sim.acceptance_probability(p, state)
        rate, stderr = sim.estimate_pass_rate(p, state, 2000, seed=4)
        assert abs(rate - exact) < 4 * stderr

    def test_runs_evaluate_no_test_past_a_failure(self, chain4, monkeypatch):
        p = proto.build_protocol(chain4, G.edge_coloring(chain4.graph), None)
        state = sim.prepare_state(p, sim.NoiseSpec("worst_case", 0.3))
        calls = []
        evaluate = sim._TestSampler.pass_probability

        def counting(self, *args, **kwargs):
            calls.append(args)
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(sim._TestSampler, "pass_probability", counting)
        results = sim.run_many(p, state, 100, runs=4, seed=3)
        assert not all(r.accepted for r in results)
        assert len(calls) == sum(r.n_passed + (not r.accepted) for r in results)


class TestBondTestsBuiltOnce:
    """Design bond tests come from Protocol.design_tests, built once per
    protocol, whether or not their matchings are tabled."""

    @staticmethod
    def projectors_built(monkeypatch, capsys, *flags) -> int:
        from ffverify import cli

        calls = []
        build = proto.bond_test_projector

        def counting(b, direction):
            calls.append(b.edge)
            return build(b, direction)

        # the sampler reaches bond test projectors only through the protocol
        assert not hasattr(sim, "bond_test_projector")
        monkeypatch.setattr(proto, "bond_test_projector", counting)
        code = cli.main(["simulate", "--chain", "4", "--closed", "--noise-epsilon", "0.3",
                         *flags])
        capsys.readouterr()
        assert code == 0
        return len(calls)

    def test_cli_simulate_projector_count(self, monkeypatch, capsys):
        built = self.projectors_built(monkeypatch, capsys, "--runs", "50",
                                      "--pass-draws", "20000")
        assert 0 < built <= 48  # 4 edges x 12 icosahedron points

    def test_untabled_projector_count(self, monkeypatch, capsys):
        monkeypatch.setattr(sim, "MEMO_TABLE_LIMIT", 100)  # chain 4 tables hold 144
        built = self.projectors_built(monkeypatch, capsys, "--runs", "20",
                                      "--pass-draws", "2000")
        assert 0 < built <= 48


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
        results = [sim.RunResult(5, 5, True, 7), sim.RunResult(5, 2, False, 7)]
        records = sim.run_records(results)
        assert list(records[0]) == list(sim.RUN_COLUMNS)
        assert records[0] == {"run": 0, "n_tests": 5, "n_passed": 5, "accepted": True,
                              "seed": 7}
        assert records[1]["run"] == 1 and records[1]["accepted"] is False
