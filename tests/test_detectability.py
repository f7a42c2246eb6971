import numpy as np
import pytest

from ffverify import detectability as dl, hamiltonian as ham
from ffverify.errors import InputError

from test_hamiltonian import commuting_family, single_projector_hamiltonian


class TestDLNormCheck:
    def test_single_projector_measures_zero(self):
        report = dl.dl_norm_check(single_projector_hamiltonian())
        assert report.measured < 1e-12
        assert report.bounds[0] == 0.0
        assert report.passed

    def test_commuting_family_measures_zero(self):
        report = dl.dl_norm_check(commuting_family())
        assert report.measured < 1e-12
        assert report.bounds[0] == 0.0
        assert report.passed

    def test_aklt_chain_within_first_bound(self, chain4):
        report = dl.dl_norm_check(chain4)
        zeta = ham.commutation_structure(chain4).zeta
        gamma = ham.spectral_gap_gamma(chain4)
        assert report.measured <= zeta / (gamma + zeta) + 1e-9
        assert report.passed

    def test_bound_chain_monotone(self, chain4):
        report = dl.dl_norm_check(chain4)
        assert report.bounds[0] <= report.bounds[1] + 1e-12
        assert report.bounds[1] <= report.bounds[2] + 1e-12
        assert report.bounds[2] <= report.bounds[3] + 1e-12

    def test_random_instances_chain_monotone(self):
        # total dimension stays at or below 64
        rng = np.random.default_rng(2024)
        for trial in range(150):
            n_nodes = int(rng.integers(2, 4))
            nodes = tuple(range(n_nodes))
            dims = [int(rng.integers(2, 5)) for _ in nodes]
            edges = [(i, i + 1) for i in range(n_nodes - 1)] or [(0,)]
            h = ham.random_ff_instance(int(rng.integers(2 ** 31)), nodes, dims,
                                       edges, ground_rank=1)
            report = dl.dl_norm_check(h)
            assert report.passed, f"trial {trial}: {report}"

    def test_hyperedge_instances(self):
        # overlapping 3-vertex hyperedges run through the same machinery
        rng = np.random.default_rng(99)
        for trial in range(20):
            h = ham.random_ff_instance(
                int(rng.integers(2 ** 31)), (0, 1, 2, 3), (2, 2, 2, 2),
                ((0, 1, 2), (1, 2, 3)), ground_rank=1)
            report = dl.dl_norm_check(h)
            assert report.passed, f"trial {trial}"

    def test_invariant_under_local_unitaries(self, chain4):
        rng = np.random.default_rng(5)
        us = {}
        for v in chain4.graph.vertices:
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q, _ = np.linalg.qr(a)
            us[v] = q
        projs = {}
        for e, p in chain4.projectors.items():
            u = np.kron(us[e[0]], us[e[1]])
            projs[e] = u @ p @ u.conj().T
        rotated = ham.FFHamiltonian(chain4.graph, projs, chain4.node_dims)
        a = dl.dl_norm_check(chain4)
        b = dl.dl_norm_check(rotated)
        assert abs(a.measured - b.measured) < 1e-9

    def test_ordering_dependence_is_reported(self, chain4):
        edges = chain4.graph.edges
        other = (edges[0], edges[2], edges[1], edges[3])
        report = dl.dl_norm_check(chain4, ordering=other)
        assert report.ordering == other
        assert report.passed


class TestDLStateCheck:
    def test_excited_eigenvector_annihilated(self):
        h = single_projector_hamiltonian()
        psi = np.array([0, 1], dtype=complex)  # the excited state of P
        check = dl.dl_state_check(h, None, psi)
        assert check.phi_norm_sq == 0.0
        assert check.energy is None
        assert check.passed

    def test_commuting_family_annihilates(self):
        h = commuting_family()
        rng = np.random.default_rng(0)
        _, basis = ham.ground_space(h)
        v = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
        v -= basis @ (basis.conj().T @ v)
        v /= np.linalg.norm(v)
        check = dl.dl_state_check(h, None, v)
        assert check.phi_norm_sq < 1e-20

    def test_random_orthogonal_states_on_chain(self, chain4):
        rng = np.random.default_rng(1)
        _, basis = ham.ground_space(chain4)
        gamma = ham.spectral_gap_gamma(chain4)
        for _ in range(10):
            v = rng.standard_normal(81) + 1j * rng.standard_normal(81)
            v -= basis @ (basis.conj().T @ v)
            v /= np.linalg.norm(v)
            check = dl.dl_state_check(chain4, None, v)
            assert check.passed
            assert check.energy >= gamma - 1e-9

    def test_ground_state_rejected(self, chain4):
        _, basis = ham.ground_space(chain4)
        with pytest.raises(InputError):
            dl.dl_state_check(chain4, None, basis[:, 0])

    def test_unnormalized_rejected(self, chain4):
        with pytest.raises(InputError):
            dl.dl_state_check(chain4, None, np.ones(81))


class TestProjectorPairCheck:
    def test_equal_projectors(self):
        p = np.diag([1.0, 0.0])
        psi = np.array([1, 1]) / np.sqrt(2)
        check = dl.projector_pair_check(p, p, psi)
        assert check.lhs < 1e-12
        assert check.passed

    def test_orthogonal_projectors(self):
        p = np.diag([1.0, 0.0])
        q = np.diag([0.0, 1.0])
        psi = np.array([0.6, 0.8])
        check = dl.projector_pair_check(p, q, psi)
        assert check.s == 0.0
        assert abs(check.lhs - 0.6) < 1e-12
        assert abs(check.rhs - 0.6) < 1e-12

    def test_qubit_angle_gives_sine(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = rng.uniform(0.1, np.pi - 0.1)
            # P along +z; Q's Bloch vector at angle pi - theta from +z, so the
            # angle between P and the complement of Q is theta
            p = np.diag([1.0, 0.0])
            ang = np.pi - theta
            qv = np.array([np.cos(ang / 2), np.sin(ang / 2)], dtype=complex)
            q = np.outer(qv, qv.conj())
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi /= np.linalg.norm(psi)
            check = dl.projector_pair_check(p, q, psi)
            assert abs(check.s - np.sin(theta / 2)) < 1e-10
            assert check.passed

    def test_random_projectors_hold(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            dim = int(rng.integers(2, 12))
            p = dl.random_projector(rng, dim, int(rng.integers(1, dim)))
            q = dl.random_projector(rng, dim, int(rng.integers(1, dim)))
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi /= np.linalg.norm(psi)
            assert dl.projector_pair_check(p, q, psi).passed

    def test_non_projector_rejected(self):
        with pytest.raises(InputError):
            dl.projector_pair_check(np.diag([0.5, 0.0]), np.eye(2), np.ones(2))


class TestUnionGapCheck:
    def test_two_rank_one_projectors_equality(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            dim = int(rng.integers(2, 16))
            a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            c = abs(np.vdot(a, b))
            check = dl.union_gap_check([np.outer(a, a.conj()), np.outer(b, b.conj())])
            assert abs(check.gap - (1 - c) / 2) < 1e-10
            assert check.passed

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_saturating_configuration(self, m):
        dim = 4
        p1 = np.zeros((dim, dim), dtype=complex)
        p1[0, 0] = 1
        p2 = np.zeros((dim, dim), dtype=complex)
        p2[1, 1] = 1
        check = dl.union_gap_check([p1] + [p2] * (m - 1))
        assert abs((1 - check.gap) - (m - 1) / m) < 1e-12
        assert abs(check.gap - check.rhs) < 1e-12

    def test_identical_projectors(self):
        p = np.diag([1.0, 0.0, 0.0])
        check = dl.union_gap_check([p, p, p])
        assert abs(check.gap) < 1e-12
        assert abs(check.rhs) < 1e-12

    def test_m_below_two_rejected(self):
        with pytest.raises(InputError):
            dl.union_gap_check([np.eye(2)])

    def test_random_tuples_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            dim = int(rng.integers(2, 33))
            ps = [dl.random_projector(rng, dim, int(rng.integers(1, dim)))
                  for _ in range(m)]
            assert dl.union_gap_check(ps).passed
