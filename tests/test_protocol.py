import math

import numpy as np
import pytest

from ffverify import aklt, graph as G, hamiltonian as ham, linalg, protocol as proto
from ffverify.errors import InputError

import oracles


@pytest.fixture(scope="module")
def chain4_protocol(chain4, icosahedron):
    return proto.build_protocol(chain4, G.edge_coloring(chain4.graph), icosahedron)


class TestTestOperator:
    def test_singleton_matching_is_embedded_bond_op(self, chain4, chain4_protocol):
        e = (0, 1)
        t = oracles.matching_operator(chain4_protocol, [e])
        expected = linalg.embed(chain4_protocol.bond_ops[e].matrix, e,
                                chain4.node_order, chain4.node_dims)
        assert np.max(np.abs(t - expected)) < 1e-12

    def test_disjoint_pair_order_irrelevant(self, chain4_protocol):
        a = oracles.matching_operator(chain4_protocol, [(0, 1), (2, 3)])
        b = oracles.matching_operator(chain4_protocol, [(2, 3), (0, 1)])
        assert np.max(np.abs(a - b)) < 1e-12

    def test_ground_state_passes(self, chain4, chain4_protocol):
        _, basis = ham.ground_space(chain4)
        psi = basis[:, 0]
        for m in chain4_protocol.cover.matchings:
            assert np.linalg.norm(chain4_protocol.apply_test(m, psi) - psi) < 1e-9


class TestVerificationOperator:
    def test_single_matching_cover(self, chain4, icosahedron):
        cover = G.MatchingCover((((0, 1), (2, 3)),), (1.0,))
        p = proto.Protocol(chain4, G.MatchingCover(
            (((0, 1), (2, 3)), ((1, 2), (0, 3))), (1.0, 0.0)),
            {e: aklt.bond_operator(aklt.bond(chain4, e), icosahedron)
             for e in chain4.graph.edges})
        omega = oracles.omega(p)
        t = oracles.matching_operator(p, [(0, 1), (2, 3)])
        assert np.max(np.abs(omega - t)) < 1e-12

    def test_hermitian_and_contained_in_unit_interval(self, chain4_protocol):
        omega = oracles.omega(chain4_protocol)
        assert linalg.hermiticity_defect(omega) < 1e-10
        vals, _ = linalg.eigh(omega)
        assert vals[0] > -1e-10 and vals[-1] < 1 + 1e-10

    def test_fixes_ground_space(self, chain4, chain4_protocol):
        _, basis = ham.ground_space(chain4)
        q0 = basis @ basis.conj().T
        omega = oracles.omega(chain4_protocol)
        assert linalg.operator_norm(omega @ q0 - q0) < 1e-9

    def test_apply_matches_dense(self, chain4, chain4_protocol):
        rng = np.random.default_rng(0)
        omega = oracles.omega(chain4_protocol)
        v = rng.standard_normal(81) + 1j * rng.standard_normal(81)
        assert np.allclose(chain4_protocol.apply_omega(v), omega @ v)


class TestSpectralGapNu:
    def test_homogeneous_operator(self):
        q0 = np.diag([1.0, 0, 0, 0])
        lam = 0.3
        omega = q0 + lam * (np.eye(4) - q0)
        assert abs(oracles.nu(omega, q0) - (1 - lam)) < 1e-12

    def test_omega_equals_projector(self):
        q0 = np.diag([1.0, 1.0, 0, 0])
        assert abs(oracles.nu(q0, q0) - 1.0) < 1e-12

    def test_inconsistent_projector_rejected(self):
        q0 = np.diag([1.0, 0.0])
        omega = np.diag([0.2, 1.0])
        with pytest.raises(InputError):
            oracles.nu(omega, q0)

    def test_measured_gap_iterative_matches_dense(self, chain4, chain4_protocol):
        dense = oracles.nu(oracles.omega(chain4_protocol), oracles.ground_projector(chain4))
        iterative = proto.measured_gap(chain4_protocol)
        assert abs(dense - iterative) < 1e-8


class TestGapFactor:
    def test_chain_value(self):
        assert round(proto.gap_factor(2, 0.350), 5) == 0.13934

    def test_honeycomb_value(self):
        assert abs(proto.gap_factor(3, 0.025) - 0.006173) < 5e-7

    def test_zero(self):
        assert proto.gap_factor(2, 0.0) == 0.0
        assert proto.gap_factor(5, 0.0) == 0.0

    def test_limit(self):
        assert proto.gap_factor(2, math.inf) == 1.0
        assert proto.gap_factor(3, math.inf) == 1.0

    def test_m_below_two(self):
        with pytest.raises(InputError):
            proto.gap_factor(1, 0.5)

    def test_negative_argument(self):
        with pytest.raises(InputError):
            proto.gap_factor(2, -0.1)

    @pytest.mark.parametrize("m", [2, 3])
    def test_monotone_and_concave(self, m):
        xs = np.linspace(0.0, 5.0, 200)
        ys = [proto.gap_factor(m, float(x)) for x in xs]
        diffs = np.diff(ys)
        assert np.all(diffs > -1e-15)
        assert np.all(np.diff(diffs) < 1e-12)

    def test_small_x_approximation(self):
        for x in np.linspace(1e-4, 0.5, 50):
            assert abs(proto.gap_factor(2, float(x)) - x / 2) <= x * x / 2
            assert abs(proto.gap_factor(3, float(x)) - x / 4) <= x * x / 4


class TestMatchingGapBounds:
    def test_chain_strong_bound(self):
        strong, weak = proto.matching_gap_bounds(2, 2 / 5, 0.350, 0.5, 2)
        assert strong >= 0.0278
        assert abs(strong - 0.027867) < 1e-6
        assert strong >= weak

    def test_honeycomb_strong_bound(self):
        strong, _ = proto.matching_gap_bounds(3, 2 / 7, 0.10, 0.5, 4)
        assert abs(strong - 5.88e-4) < 5e-7

    def test_two_local_weak_identity(self):
        # with g = 2(Delta - 1) the weak bound reads nu_e gamma / (24 m (Delta-1)^2)
        for delta_g in (2, 3, 5):
            g = 2 * delta_g - 2
            _, weak = proto.matching_gap_bounds(3, 0.3, 0.2, 0.5, g)
            assert abs(weak - 0.3 * 0.2 / (24 * 3 * (delta_g - 1) ** 2)) < 1e-15

    def test_strong_dominates_weak_for_small_gamma(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            g = int(rng.integers(1, 6))
            gamma = float(rng.uniform(0.01, 1.0)) * g * g
            gamma = min(gamma, g * g)  # gamma / g^2 <= 1
            s = float(rng.uniform(0.05, 0.95))
            nu_e = float(rng.uniform(0.05, 1.0))
            strong, weak = proto.matching_gap_bounds(m, nu_e, gamma, s, g)
            assert strong >= weak - 1e-15

    def test_degenerate_s_uses_limit(self):
        strong, weak = proto.matching_gap_bounds(2, 0.4, 0.9, 0.0, 3)
        assert strong == 0.4 / 2
        assert weak == 0.4 * 0.9 / (6 * 2 * 9)

    def test_invalid_s(self):
        with pytest.raises(InputError):
            proto.matching_gap_bounds(2, 0.4, 0.35, 1.0, 2)


class TestColoringGapBound:
    def test_chain_value(self):
        gamma = 0.5
        assert abs(proto.coloring_gap_bound(2 / 5, gamma, 4) - 0.1 * gamma) < 1e-15

    def test_validation(self):
        with pytest.raises(InputError):
            proto.coloring_gap_bound(0.4, 0.0, 4)


class TestSampleCounts:
    def test_unit_gap(self):
        assert proto.sample_count(1.0, 0.01, 0.01) == 459

    def test_single_test_regime(self):
        assert proto.sample_count(1.0, 0.5, 0.5) == 1

    def test_monotone_in_nu_eps_delta(self):
        base = proto.sample_count(0.3, 0.05, 0.05)
        assert proto.sample_count(0.6, 0.05, 0.05) <= base
        assert proto.sample_count(0.3, 0.10, 0.05) <= base
        assert proto.sample_count(0.3, 0.05, 0.10) <= base

    def test_range_validation(self):
        with pytest.raises(InputError):
            proto.sample_count(0.5, 0.0, 0.01)
        with pytest.raises(InputError):
            proto.sample_count(0.5, 0.01, 1.0)
        with pytest.raises(InputError):
            proto.sample_count(0.0, 0.01, 0.01)

    def test_chain_counts(self):
        n_strong, n_weak = proto.sample_count_from_bounds(
            2, 2 / 5, 0.01, 0.01, 0.350, 0.5, 2)
        assert n_strong == 16525
        assert n_weak == 157892
        assert n_strong <= n_weak

    def test_honeycomb_count(self):
        n_strong, _ = proto.sample_count_from_bounds(
            3, 2 / 7, 0.01, 0.01, 0.10, 0.5, 4)
        assert abs(n_strong - 7.9e5) / 7.9e5 < 0.01

    def test_eq2_below_bound_counts(self):
        strong, _ = proto.matching_gap_bounds(2, 2 / 5, 0.350, 0.5, 2)
        n = proto.sample_count(strong, 0.01, 0.01)
        n_strong, n_weak = proto.sample_count_from_bounds(
            2, 2 / 5, 0.01, 0.01, 0.350, 0.5, 2)
        assert n <= n_strong <= n_weak


class TestCompetitors:
    def test_hkse_chain(self):
        value = proto.hkse_cost(100, 0.350, 0.01, 0.01)
        assert abs(value - 3.76e11) / 3.76e11 < 0.01

    def test_hkse_approx_close(self):
        exact = proto.hkse_cost(100, 0.350, 0.01, 0.01)
        approx = proto.hkse_cost_approx(100, 0.350, 0.01, 0.01)
        assert abs(exact - approx) / exact < 0.01

    def test_bhsre_chain(self):
        value = proto.bhsre_lower(100, 0.350, 0.01, 0.01, kappa=2)
        assert abs(value - 2.32e9) / 2.32e9 < 0.01

    def test_honeycomb_values(self):
        hkse = proto.hkse_cost(150, 0.10, 0.01, 0.01)
        assert abs(hkse - 1.6e13) / 1.6e13 < 0.02
        bhsre = proto.bhsre_lower(100, 0.10, 0.01, 0.01, kappa=3)
        assert bhsre >= 2.9e10
        assert bhsre < 3.1e10

    def test_bhsre_alpha_scales(self):
        base = proto.bhsre_lower(50, 0.2, 0.01, 0.01, kappa=2)
        scaled = proto.bhsre_lower(50, 0.2, 0.01, 0.01, kappa=2, alpha=1.5)
        assert abs(scaled - base * 9.0) < 1e-6 * scaled

    def test_tm_lower(self):
        n, r = 4, 2.0
        expected = 32 * r ** 2 * n ** 5 + 2 ** 11 * n ** 15 * r ** 4 * math.log(2)
        assert proto.tm_lower(n, r) == pytest.approx(expected)

    def test_gkea(self):
        general, gapped = proto.gkea_costs(10, 0.01, 0.01)
        log_term = math.log(200)
        assert general == math.ceil(2 * 10 ** 4 * log_term / 1e-4)
        assert gapped == math.ceil(100 * math.log(10) ** 2 * log_term / 2e-4)

    def test_validation(self):
        with pytest.raises(InputError):
            proto.bhsre_lower(10, 0.3, 0.01, 0.01, kappa=1)
        with pytest.raises(InputError):
            proto.bhsre_lower(10, 0.3, 0.01, 0.01, kappa=2, alpha=0.4)
        for epsilon, delta in ((0.0, 0.01), (0.01, 0.0), (0.01, 2.0)):
            with pytest.raises(InputError):
                proto.hkse_cost_approx(10, 0.35, epsilon, delta)

    def test_competitor_table_keys(self):
        table = proto.competitor_costs(0.01, 0.01, gamma=0.35, n=100,
                                       edge_count=100, r=1.0, modes=8)
        assert {"HKSE", "BHSRE", "TM_lower", "GKEA_general", "GKEA_gapped"} <= set(table)


class TestAkltProtocolBounds:
    def test_chain_floor(self):
        out = proto.aklt_protocol_bounds(G.chain(10, closed=True), 0.350)
        assert abs(out["gap_floor"] - 0.350 / 384) < 1e-12
        assert out["gap_floor"] == pytest.approx(9.11e-4, rel=1e-2)

    def test_honeycomb_floor(self):
        g = G.honeycomb_lattice(3, 3, periodic=True)
        out = proto.aklt_protocol_bounds(g, 0.10)
        assert abs(out["gap_floor"] - 0.10 / 1944) < 1e-12
        assert out["gap_floor"] == pytest.approx(5.14e-5, rel=1e-2)

    def test_sample_ceiling_formula(self):
        g = G.chain(8, closed=True)
        out = proto.aklt_protocol_bounds(g, 0.350, 0.01, 0.01)
        expected = math.ceil(24 * 2 ** 4 * math.log(100) / (0.350 * 0.01))
        assert out["n_ceiling"] == expected

    def test_large_degree_gap(self):
        g = G.chain(6, closed=True)
        out = proto.aklt_protocol_bounds(g, 0.5)
        assert abs(out["large_degree_gap"] - 4 * 0.5 / (6 * 2 * 5)) < 1e-15


class TestProtocolValidation:
    def test_cover_mismatch(self, chain4, icosahedron):
        cover = G.MatchingCover((((0, 1),),), (1.0,))
        ops = {e: aklt.bond_operator(aklt.bond(chain4, e), icosahedron)
               for e in chain4.graph.edges}
        with pytest.raises(InputError):
            proto.Protocol(chain4, cover, ops)

    def test_missing_bond_operator(self, chain4, icosahedron):
        cover = G.edge_coloring(chain4.graph)
        ops = {e: aklt.bond_operator(aklt.bond(chain4, e), icosahedron)
               for e in chain4.graph.edges[:-1]}
        with pytest.raises(InputError):
            proto.Protocol(chain4, cover, ops)

    def test_operator_must_fix_subspace(self, chain4):
        cover = G.edge_coloring(chain4.graph)
        broken = {}
        for e in chain4.graph.edges:
            b = aklt.bond(chain4, e)
            broken[e] = aklt.BondOperator(b, 0.5 * np.eye(9), None)
        with pytest.raises(InputError):
            proto.Protocol(chain4, cover, broken)


class TestGapReport:
    def test_chain_report(self, chain4_protocol):
        report = proto.gap_report(chain4_protocol)
        assert report.passed
        assert report.nu_measured >= report.thm1_strong - 1e-9
        assert report.nu_measured >= report.thm1_weak - 1e-9
        assert report.thm2 is not None
        assert report.nu_measured >= report.thm2 - 1e-9

    def test_saturation_trivial_isotropic(self, chain4):
        p = proto.build_protocol(chain4, G.trivial_cover(chain4.graph), None)
        report = proto.gap_report(p)
        gamma = report.parameters["gamma"]
        assert abs(report.nu_measured - (2 / 5) * gamma / 4) < 1e-9

    def test_report_serialization(self, chain4_protocol):
        report = proto.gap_report(chain4_protocol)
        data = report.to_dict()
        assert "nu_measured" in data and "gamma" in data
        text = proto.report_rows_to_csv([data])
        header = text.splitlines()[0]
        assert header == ",".join(proto.REPORT_COLUMNS)

    def test_proportional_equals_uniform_for_balanced_coloring(self, chain4, icosahedron):
        cover = G.edge_coloring(chain4.graph).with_proportional_probabilities()
        p = proto.build_protocol(chain4, cover, icosahedron)
        report = proto.gap_report(p)
        assert report.thm2 is not None
        assert report.nu_measured >= report.thm2 - 1e-9
