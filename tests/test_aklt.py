import json
from itertools import combinations

import numpy as np
import pytest

from ffverify import aklt, graph as G, hamiltonian as ham, linalg
from ffverify.errors import InputError, InvariantViolation

import oracles
from conftest import random_direction_distribution, random_rotation, random_unit_vector


class TestSpinOperators:
    def test_spin_half_is_half_pauli(self):
        sx, sy, sz = linalg.spin_operators(1)
        assert np.allclose(sx, [[0, 0.5], [0.5, 0]])
        assert np.allclose(sy, [[0, -0.5j], [0.5j, 0]])
        assert np.allclose(sz, [[0.5, 0], [0, -0.5]])

    def test_spin_one_sz_eigenvalues(self):
        _, _, sz = linalg.spin_operators(2)
        assert np.allclose(np.diag(sz), [1, 0, -1])

    @pytest.mark.parametrize("twice_s", [1, 2, 3, 4, 6])
    def test_commutation_relations(self, twice_s):
        sx, sy, sz = linalg.spin_operators(twice_s)
        assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-12
        assert np.max(np.abs(sy @ sz - sz @ sy - 1j * sx)) < 1e-12
        assert np.max(np.abs(sz @ sx - sx @ sz - 1j * sy)) < 1e-12

    @pytest.mark.parametrize("twice_s", [1, 2, 3, 5])
    def test_casimir(self, twice_s):
        sx, sy, sz = linalg.spin_operators(twice_s)
        s = twice_s / 2
        total = sx @ sx + sy @ sy + sz @ sz
        assert np.allclose(total, s * (s + 1) * np.eye(twice_s + 1))

    def test_traceless(self):
        for twice_s in (1, 2, 5):
            _, _, sz = linalg.spin_operators(twice_s)
            assert abs(np.trace(sz)) < 1e-12

    def test_invalid_spin(self):
        with pytest.raises(InputError):
            linalg.spin_operators(0)


class TestCoherentExtremes:
    @pytest.mark.parametrize("twice_s", [1, 2, 3, 4, 5])
    def test_closed_form_matches_eigh(self, twice_s):
        """The closed-form states project like eigh's +S and -S eigenvectors,
        at random directions and at both poles."""
        rng = np.random.default_rng(twice_s)
        directions = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
        directions += [random_unit_vector(rng) for _ in range(20)]
        for r in directions:
            for got, want in zip(aklt.coherent_extremes(twice_s, r),
                                 oracles.coherent_extremes(twice_s, r)):
                assert np.max(np.abs(np.outer(got, got.conj())
                                     - np.outer(want, want.conj()))) < 1e-12

    @pytest.mark.parametrize("twice_s, direction", [
        (0, [0, 0, 1]), (2, [1, 0]),
        # blocks: empty, three-dimensional, rows of two, one non-unit row
        (2, np.zeros((0, 3))), (2, np.zeros((2, 2, 3))), (2, [[1.0, 0]]),
        (2, [[0, 0, 1], [0, 0, 1 + 1e-9], [1, 0, 0]]),
        # a NaN norm fails every comparison with the tolerance
        (2, [np.nan, 0, 1])])
    def test_invalid_spin_or_direction(self, twice_s, direction):
        with pytest.raises(InputError):
            aklt.coherent_extremes(twice_s, direction)

    def test_z_axis_gives_basis_kets(self):
        plus, minus = aklt.coherent_extremes(2, [0, 0, 1])
        assert np.allclose(plus, [1, 0, 0])
        assert np.allclose(minus, [0, 0, 1])

    def test_eigenvector_property(self):
        rng = np.random.default_rng(0)
        for twice_s in (1, 2, 3):
            r = random_unit_vector(rng)
            op = oracles.spin_along(twice_s, r)
            plus, minus = aklt.coherent_extremes(twice_s, r)
            s = twice_s / 2
            assert np.linalg.norm(op @ plus - s * plus) < 1e-10
            assert np.linalg.norm(op @ minus + s * minus) < 1e-10

    @pytest.mark.parametrize("twice_s", [1, 2, 3, 4])
    def test_overlap_formulas(self, twice_s):
        rng = np.random.default_rng(twice_s)
        for _ in range(10):
            r, s_dir = random_unit_vector(rng), random_unit_vector(rng)
            pr, mr = aklt.coherent_extremes(twice_s, r)
            ps, ms = aklt.coherent_extremes(twice_s, s_dir)
            c = float(r @ s_dir)
            same = ((1 + c) / 2) ** twice_s
            cross = ((1 - c) / 2) ** twice_s
            assert abs(abs(np.vdot(pr, ps)) ** 2 - same) < 1e-12
            assert abs(abs(np.vdot(mr, ms)) ** 2 - same) < 1e-12
            assert abs(abs(np.vdot(pr, ms)) ** 2 - cross) < 1e-12

    def test_phase_deterministic(self):
        a = aklt.coherent_extremes(3, [0.6, 0.0, 0.8])
        b = aklt.coherent_extremes(3, [0.6, 0.0, 0.8])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_non_unit_direction_rejected(self):
        with pytest.raises(InputError):
            aklt.coherent_extremes(2, [0, 0, 2])

    @pytest.mark.parametrize("twice_s", [1, 2, 3, 4])
    def test_block_matches_eigh_row_by_row(self, twice_s):
        """An (n, 3) block gives row i's extremes for direction i: the single
        call's, with its phase rule, and eigh's up to that phase."""
        rng = np.random.default_rng(10 + twice_s)
        blocks = [np.stack([random_unit_vector(rng) for _ in range(30)])]
        blocks += [aklt.design_catalog(name).points for name in aklt.CATALOG_ORDERS]
        for block in blocks:
            plus, minus = aklt.coherent_extremes(twice_s, block)
            assert plus.shape == minus.shape == (len(block), twice_s + 1)
            for r, got in zip(block, zip(plus, minus)):
                for row, single, want in zip(got, aklt.coherent_extremes(twice_s, r),
                                             oracles.coherent_extremes(twice_s, r)):
                    assert np.array_equal(row, single)
                    pivot = row[np.argmax(np.abs(row))]
                    assert abs(pivot.imag) < 1e-15 and pivot.real > 0
                    assert np.max(np.abs(np.outer(row, row.conj())
                                         - np.outer(want, want.conj()))) < 1e-14


class TestAkltHamiltonian:
    def test_two_vertices_triplet_projector(self):
        h = aklt.aklt_hamiltonian(G.chain(2))
        p = h.projectors[(0, 1)]
        assert abs(np.trace(p).real - 3) < 1e-10  # rank 2 S_e + 1 = 3
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert np.linalg.norm(p @ singlet) < 1e-10

    def test_closed_chain_ranks(self, chain4):
        p = chain4.projectors[(0, 1)]
        assert abs(np.trace(p).real - 5) < 1e-9       # rank P_e = 2 S_e + 1
        assert abs(np.trace(np.eye(9) - p).real - 4) < 1e-9   # rank Q_e = 4 S_j S_k

    def test_closed_chain_frustration_free(self, chain4):
        vals, _ = linalg.eigh(oracles.hamiltonian(chain4))
        assert vals[0] < 1e-10
        rank, _ = ham.ground_space(chain4)
        assert rank == 1

    def test_loop_rejected(self):
        g = G.Hypergraph((0, 1), ((0,), (0, 1)))
        with pytest.raises(InputError):
            aklt.aklt_hamiltonian(g)

    def test_isolated_vertex_rejected(self):
        g = G.Hypergraph((0, 1, 2), ((0, 1),))
        with pytest.raises(InputError):
            aklt.aklt_hamiltonian(g)

    @pytest.mark.parametrize("g", [
        G.chain(3), G.chain(4), G.chain(5),
        G.chain(3, closed=True), G.chain(5, closed=True), G.chain(6, closed=True),
        G.Hypergraph(range(3), combinations(range(3), 2)),
        G.Hypergraph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3))),       # star
        G.Hypergraph((0, 1, 2, 3, 4), ((0, 1), (1, 2), (1, 3), (3, 4))),  # tree
    ], ids=["p3", "p4", "p5", "c3", "c5", "c6", "k3", "star", "tree"])
    def test_connected_graphs_unique_ground_state(self, g):
        h = aklt.aklt_hamiltonian(g)
        rank, _ = ham.ground_space(h)
        assert rank == 1

    def test_spins_follow_degree(self):
        g = G.Hypergraph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)))
        h = aklt.aklt_hamiltonian(g)
        assert h.node_dims[0] == 4    # degree 3 -> spin 3/2
        assert h.node_dims[1] == 2    # leaves are spin 1/2

    def test_edgeless_graph_rejected(self):
        with pytest.raises(InputError, match="graph has no edges"):
            aklt.aklt_hamiltonian(G.Hypergraph((0, 1), ()))

    def test_projector_rank_mismatch_is_an_invariant_violation(self, monkeypatch):
        # no eigenvalue of (S_j + S_k)^2 lies strictly within 0 of S_E(S_E + 1)
        monkeypatch.setattr(aklt, "SPIN_CLUSTER_TOL", 0.0)
        aklt.coupled_spin_projector.cache_clear()
        with pytest.raises(InvariantViolation, match="top spin sector has rank 0, expected 3"):
            aklt.coupled_spin_projector(1, 1)


class TestBondTests:
    def test_chain_bond_trace(self, chain4):
        b = aklt.bond(chain4, (0, 1))
        r = aklt.bond_test_projector(b, [0, 0, 1])
        assert abs(np.trace(r).real - 7) < 1e-10

    def test_antipodal_directions_identical(self, chain4):
        rng = np.random.default_rng(1)
        b = aklt.bond(chain4, (1, 2))
        for _ in range(5):
            r = random_unit_vector(rng)
            a = aklt.bond_test_projector(b, r)
            c = aklt.bond_test_projector(b, -r)
            assert np.max(np.abs(a - c)) < 1e-12

    def test_is_projector(self, chain4):
        b = aklt.bond(chain4, (0, 1))
        r = aklt.bond_test_projector(b, [0.6, 0.0, 0.8])
        assert linalg.operator_norm(r @ r - r) < 1e-10

    def test_fixes_bond_ground_space(self, chain4):
        b = aklt.bond(chain4, (0, 1))
        r = aklt.bond_test_projector(b, [0, 1, 0])
        q = b.ground_projector
        assert linalg.operator_norm(r @ q - q) < 1e-10

    def test_unknown_edge(self, chain4):
        with pytest.raises(InputError):
            aklt.bond(chain4, (0, 2))


class TestBondOperator:
    @pytest.mark.parametrize("name", sorted(aklt.CATALOG_ORDERS))
    @pytest.mark.parametrize("twice_sj, twice_sk", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)])
    def test_gram_product_matches_sum_of_tests(self, name, twice_sj, twice_sk):
        b = aklt.Bond(twice_sj, twice_sk)
        mu = aklt.design_catalog(name)
        op = aklt.bond_operator(b, mu)
        assert np.max(np.abs(op.matrix - oracles.bond_operator(b, mu))) < 1e-14

    def test_block_of_tests_matches_single_tests(self):
        b = aklt.Bond(2, 3)
        points = aklt.design_catalog("dodecahedron").points
        tests = aklt.bond_test_projector(b, points)
        assert tests.shape == (len(points), b.dim, b.dim)
        for r, test in zip(points, tests):
            assert np.array_equal(test, aklt.bond_test_projector(b, r))

    def test_single_direction_gives_zero_gap(self, chain4):
        b = aklt.bond(chain4, (0, 1))
        mu = aklt.DirectionDistribution(np.array([[0.0, 0.0, 1.0]]), np.array([1.0]))
        op = aklt.bond_operator(b, mu)
        assert np.allclose(op.matrix, aklt.bond_test_projector(b, [0, 0, 1]))
        assert abs(op.gap) < 1e-10

    def test_icosahedron_gap(self, chain4, icosahedron):
        b = aklt.bond(chain4, (0, 1))
        op = aklt.bond_operator(b, icosahedron)
        assert abs(op.gap - 2 / 5) < 1e-10

    def test_trace_independent_of_mu(self, chain4, icosahedron, tetrahedron):
        rng = np.random.default_rng(2)
        b = aklt.bond(chain4, (0, 1))
        expected = 3 * 3 - 2
        for mu in (icosahedron, tetrahedron, random_direction_distribution(rng, 7)):
            op = aklt.bond_operator(b, mu)
            assert abs(op.trace - expected) < 1e-9

    def test_psd_and_below_identity(self, chain4, tetrahedron):
        b = aklt.bond(chain4, (0, 1))
        op = aklt.bond_operator(b, tetrahedron)
        vals, _ = linalg.eigh(op.matrix)
        assert vals[0] > -1e-12
        assert vals[-1] < 1 + 1e-12

    def test_gap_concave_in_mu(self, chain4):
        rng = np.random.default_rng(3)
        b = aklt.bond(chain4, (0, 1))
        for _ in range(10):
            mu1 = random_direction_distribution(rng, 5)
            mu2 = random_direction_distribution(rng, 6)
            p = float(rng.random())
            mix = aklt.DirectionDistribution(
                np.concatenate([mu1.points, mu2.points]),
                np.concatenate([p * mu1.weights, (1 - p) * mu2.weights]))
            nu_mix = aklt.bond_operator(b, mix).gap
            nu1 = aklt.bond_operator(b, mu1).gap
            nu2 = aklt.bond_operator(b, mu2).gap
            assert nu_mix >= p * nu1 + (1 - p) * nu2 - 1e-9

    def test_gap_rotation_invariant(self, chain4):
        rng = np.random.default_rng(4)
        b = aklt.bond(chain4, (0, 1))
        for _ in range(5):
            mu = random_direction_distribution(rng, 6)
            rot = random_rotation(rng)
            nu = aklt.bond_operator(b, mu).gap
            mu_rot = aklt.DirectionDistribution(mu.points @ rot.T, mu.weights)
            nu_rot = aklt.bond_operator(b, mu_rot).gap
            assert abs(nu - nu_rot) < 1e-9

    def test_gap_bounded_by_isotropic(self, chain4):
        rng = np.random.default_rng(5)
        b = aklt.bond(chain4, (0, 1))
        cap = aklt.isotropic_gap(b.twice_se)
        for _ in range(20):
            mu = random_direction_distribution(rng, int(rng.integers(1, 9)))
            assert aklt.bond_operator(b, mu).gap <= cap + 1e-9

    def test_wrong_shape_rejected(self):
        with pytest.raises(InputError, match="bond operator has the wrong dimension"):
            aklt.BondOperator(aklt.Bond(2, 2), np.eye(3))


class TestIsotropic:
    @pytest.mark.parametrize("twice_se,expected", [(4, 2 / 5), (6, 2 / 7), (2, 2 / 3)])
    def test_gap_values(self, twice_se, expected):
        assert abs(aklt.isotropic_gap(twice_se) - expected) < 1e-15

    def test_operator_form(self, chain4):
        b = aklt.bond(chain4, (0, 1))
        op = aklt.isotropic_bond_operator(b)
        expected = b.ground_projector + (3 / 5) * b.top_projector
        assert np.max(np.abs(op.matrix - expected)) < 1e-12
        assert abs(op.gap - 2 / 5) < 1e-12


class TestFramePotentials:
    def test_f0_is_one(self, icosahedron, tetrahedron):
        assert abs(aklt.frame_potential(icosahedron, 0) - 1) < 1e-15
        assert abs(aklt.frame_potential(tetrahedron, 0) - 1) < 1e-15

    def test_icosahedron_values(self, icosahedron):
        assert abs(aklt.frame_potential(icosahedron, 2) - 1 / 3) < 1e-12
        assert abs(aklt.frame_potential(icosahedron, 4) - 1 / 5) < 1e-12

    def test_tetrahedron_not_4_design(self, tetrahedron):
        assert aklt.frame_potential(tetrahedron, 4) > 1 / 5 + 1e-3
        assert aklt.is_design(tetrahedron, 2)
        assert not aklt.is_design(tetrahedron, 4)

    def test_catalog_design_orders(self):
        for name, order in aklt.CATALOG_ORDERS.items():
            mu = aklt.design_catalog(name)
            assert aklt.is_design(mu, order), name
            assert not aklt.is_design(mu, order + 2), name

    def test_effective_orders(self):
        # symmetrizing the tetrahedron yields the cube, hence order 3; the
        # centrally symmetric solids keep their classical order
        assert aklt.design_order(aklt.design_catalog("tetrahedron")) == 3
        for name in ("octahedron", "cube", "icosahedron", "dodecahedron"):
            assert aklt.design_order(aklt.design_catalog(name)) == aklt.CATALOG_ORDERS[name]

    def test_symmetrize(self, tetrahedron):
        sym = aklt.symmetrize(tetrahedron)
        assert len(sym) == 8
        assert abs(sym.weights.sum() - 1) < 1e-12
        # odd moments vanish after symmetrization
        assert abs(aklt.frame_potential(sym, 3) -
                   0.0) < 1e-12 or aklt.frame_potential(sym, 3) < aklt.frame_potential(tetrahedron, 3)

    def test_negative_order_rejected(self, icosahedron):
        with pytest.raises(InputError):
            aklt.frame_potential(icosahedron, -1)


class TestCatalog:
    def test_octahedron_points(self):
        mu = aklt.design_catalog("octahedron")
        assert len(mu) == 6
        assert {tuple(np.round(p, 12)) for p in mu.points} == {
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}

    def test_cube_points(self):
        mu = aklt.design_catalog("cube")
        assert len(mu) == 8
        assert np.allclose(np.abs(mu.points), 1 / np.sqrt(3))

    def test_dodecahedron(self):
        mu = aklt.design_catalog("dodecahedron")
        assert len(mu) == 20
        assert aklt.is_design(mu, 5)

    def test_unknown_name(self):
        with pytest.raises(InputError):
            aklt.design_catalog("rhombicosidodecahedron")

    def test_distribution_json_round_trip(self, icosahedron, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({"points": icosahedron.points.tolist(),
                                    "weights": icosahedron.weights.tolist()}))
        loaded = aklt.DirectionDistribution.from_file(path)
        assert np.allclose(loaded.points, icosahedron.points)
        assert np.allclose(loaded.weights, icosahedron.weights)

    def test_json_defaults_to_uniform(self):
        mu = aklt.DirectionDistribution.from_json('{"points": [[0,0,1],[0,0,-1]]}')
        assert np.allclose(mu.weights, [0.5, 0.5])


class TestDirectionDistributionValidation:
    def test_no_points(self):
        with pytest.raises(InputError, match=r"points must be a nonempty \(n, 3\) array"):
            aklt.DirectionDistribution(np.zeros((0, 3)), np.zeros(0))

    @pytest.mark.parametrize("points", [np.zeros((0, 3)), 5.0], ids=["empty", "scalar"])
    def test_uniform_without_points(self, points):
        with pytest.raises(InputError, match=r"points must be a nonempty \(n, 3\) array"):
            aklt.DirectionDistribution.uniform(points)

    def test_non_unit_point(self):
        with pytest.raises(InputError):
            aklt.DirectionDistribution(np.array([[0, 0, 2.0]]), np.array([1.0]))

    def test_weight_sum(self):
        with pytest.raises(InputError):
            aklt.DirectionDistribution(np.array([[0, 0, 1.0]]), np.array([0.5]))

    def test_negative_weight(self):
        pts = np.array([[0, 0, 1.0], [0, 1.0, 0]])
        with pytest.raises(InputError):
            aklt.DirectionDistribution(pts, np.array([1.5, -0.5]))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    @pytest.mark.parametrize("field, text", [
        ("points", '{{"points": [[0, 0, 1], [0, {bad}, 1]]}}'),
        ("weights", '{{"points": [[0, 0, 1], [0, 0, -1]], "weights": [1.0, {bad}]}}'),
    ], ids=["points", "weights"])
    def test_non_finite_json(self, field, text, bad):
        with pytest.raises(InputError, match=f"{field} must be finite"):
            aklt.DirectionDistribution.from_json(text.format(bad=bad))


class TestOverlapTrace:
    def test_aligned_gives_projector_purity(self):
        for twice_se in (2, 3, 4, 6):
            assert abs(aklt.overlap_trace(twice_se, 1.0) - (twice_se - 1)) < 1e-12

    def test_orthogonal_directions_value(self):
        assert abs(aklt.overlap_trace(4, 0.0) - 1.25) < 1e-12

    def test_binomial_identity(self):
        for twice_se in (2, 3, 4, 6):
            for c in (-0.7, 0.0, 0.3, 0.95):
                assert abs(aklt.overlap_trace(twice_se, c)
                           - oracles.overlap_trace_binomial(twice_se, c)) < 1e-12

    @pytest.mark.parametrize("spins", [(1, 1), (1, 2), (2, 2), (3, 3)])
    def test_matrix_agreement(self, spins):
        rng = np.random.default_rng(sum(spins))
        b = aklt.Bond(*spins)
        for _ in range(5):
            r, s = random_unit_vector(rng), random_unit_vector(rng)
            direct = oracles.overlap_trace_matrix(b, r, s)
            closed = aklt.overlap_trace(b.twice_se, float(r @ s))
            assert abs(direct - closed) < 1e-9

    def test_out_of_range_cosine(self):
        with pytest.raises(InputError):
            aklt.overlap_trace(4, 1.5)


class TestBondDesignReport:
    def test_icosahedron_all_true(self, chain4, icosahedron):
        b = aklt.bond(chain4, (0, 1))
        rep = aklt.bond_design_report(b, icosahedron)
        assert rep.gap_is_maximal and rep.matches_closed_form
        assert rep.is_homogeneous and rep.is_design
        assert rep.statements_agree
        assert abs(rep.trace_sq - 9 / 5) < 1e-10

    def test_tetrahedron_all_false(self, chain4, tetrahedron):
        b = aklt.bond(chain4, (0, 1))
        rep = aklt.bond_design_report(b, tetrahedron)
        assert not (rep.gap_is_maximal or rep.matches_closed_form
                    or rep.is_homogeneous or rep.is_design)
        assert rep.statements_agree
        assert rep.trace_sq > rep.floor + 1e-3

    def test_octahedron_on_spin_one_bond(self):
        h = aklt.aklt_hamiltonian(G.chain(2))
        b = aklt.bond(h, (0, 1))       # S_e = 1, needs a 2-design
        rep = aklt.bond_design_report(b, aklt.design_catalog("octahedron"))
        assert rep.gap_is_maximal and rep.is_homogeneous and rep.is_design
        assert rep.statements_agree

    def test_floor_on_random_distributions(self, chain4):
        rng = np.random.default_rng(11)
        b = aklt.bond(chain4, (0, 1))
        for _ in range(1000):
            mu = random_direction_distribution(rng, int(rng.integers(1, 10)))
            rep = aklt.bond_design_report(b, mu)
            assert rep.floor_holds
            assert rep.statements_agree

    def test_floor_saturated_exactly_on_catalog_designs(self, chain4):
        b = aklt.bond(chain4, (0, 1))   # needs a 4-design
        for name in ("icosahedron", "dodecahedron"):
            rep = aklt.bond_design_report(b, aklt.design_catalog(name))
            assert abs(rep.trace_sq - rep.floor) < 1e-10
        for name in ("tetrahedron", "octahedron", "cube"):
            rep = aklt.bond_design_report(b, aklt.design_catalog(name))
            assert rep.trace_sq > rep.floor + 1e-3
