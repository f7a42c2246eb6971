import numpy as np
import pytest

from ffverify import aklt, graph as G, hamiltonian as ham, linalg
from ffverify.errors import (DegenerateSpectrum, InputError, NotFrustrationFree)

import oracles


def qubit_projector(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def single_projector_hamiltonian():
    g = G.Hypergraph((0,), ((0,),))
    return ham.FFHamiltonian(g, {(0,): qubit_projector([0, 1])}, {0: 2})


def commuting_family(n=3):
    """Diagonal projectors on a register of qubits: everything commutes."""
    g = G.chain(n)
    projs = {}
    for e in g.edges:
        diag = np.zeros(4)
        diag[3] = 1  # |11><11| on the pair
        projs[e] = np.diag(diag)
    return ham.FFHamiltonian(g, projs, {v: 2 for v in g.vertices})


class TestValidation:
    def test_non_projector_rejected(self):
        g = G.Hypergraph((0,), ((0,),))
        with pytest.raises(InputError):
            ham.FFHamiltonian(g, {(0,): 0.5 * np.eye(2)}, {0: 2})

    def test_missing_projector(self):
        g = G.chain(3)
        with pytest.raises(InputError):
            ham.FFHamiltonian(g, {}, {v: 2 for v in g.vertices})

    def test_support_mismatch(self):
        g = G.chain(3)
        dims = {0: 2, 1: 3, 2: 2}
        with pytest.raises(InputError, match="shape"):
            # (1, 2) spans 3 x 2 = 6 dimensions, not 4
            ham.FFHamiltonian(g, {(0, 1): np.zeros((6, 6)), (1, 2): np.zeros((4, 4))}, dims)

    def test_unknown_edge(self):
        g = G.chain(3)
        projs = {e: np.zeros((4, 4)) for e in ((0, 1), (1, 2), (0, 2))}
        with pytest.raises(InputError, match="unknown edges"):
            ham.FFHamiltonian(g, projs, {v: 2 for v in g.vertices})

    def test_projectors_stored_as_read_only_copies(self):
        g = G.chain(2)
        p = np.diag([0.0, 0.0, 0.0, 1.0])
        h = ham.FFHamiltonian(g, {(0, 1): p}, {0: 2, 1: 2})
        stored = h.projectors[(0, 1)]
        assert stored.dtype == complex and not np.shares_memory(stored, p)
        with pytest.raises(ValueError):
            stored[0, 0] = 1
        p[3, 3] = 0  # the caller's array stays writable and H keeps its copy
        assert stored[3, 3] == 1

    def test_not_frustration_free_detected(self):
        g = G.Hypergraph((0,), ((0,),))
        # P and its complement share no null vector: H = 1
        h = ham.FFHamiltonian(G.Hypergraph((0, 1), ((0,), (0, 1))), {
            (0,): qubit_projector([1, 0]),
            (0, 1): np.kron(qubit_projector([0, 1]), np.eye(2)),
        }, {0: 2, 1: 2})
        with pytest.raises(NotFrustrationFree):
            ham.ground_space(h)


def ground_projector(h):
    """Q0 and its rank from the production ground-space basis."""
    rank, basis = ham.ground_space(h)
    return basis @ basis.conj().T, rank


class TestGroundProjector:
    def test_single_projector(self):
        h = single_projector_hamiltonian()
        q0, rank = ground_projector(h)
        assert rank == 1
        assert np.allclose(q0, qubit_projector([1, 0]))

    def test_annihilates_every_projector(self, chain4):
        q0, _ = ground_projector(chain4)
        for e, p in chain4.projectors.items():
            pe = oracles.embedded(chain4, p, e)
            assert linalg.operator_norm(pe @ q0) < 1e-9

    def test_commutes_with_every_projector(self, chain4):
        q0, _ = ground_projector(chain4)
        for e, p in chain4.projectors.items():
            pe = oracles.embedded(chain4, p, e)
            assert linalg.commutator_norm(pe, q0) < 1e-9

    def test_aklt_chain_unique_ground_state(self, chain4):
        _, rank = ground_projector(chain4)
        assert rank == 1

    def test_empty_edge_set_gives_identity(self):
        g = G.Hypergraph((0, 1), ())
        h = ham.FFHamiltonian(g, {}, {0: 2, 1: 2})
        q0, rank = ground_projector(h)
        assert rank == 4
        assert np.allclose(q0, np.eye(4))


class TestSpectralGap:
    def test_single_projector(self):
        assert abs(ham.spectral_gap_gamma(single_projector_hamiltonian()) - 1.0) < 1e-12

    def test_two_node_chain(self):
        h = aklt.aklt_hamiltonian(G.chain(2))
        assert abs(ham.spectral_gap_gamma(h) - 1.0) < 1e-10

    def test_h_zero_degenerate(self):
        g = G.Hypergraph((0, 1), ())
        h = ham.FFHamiltonian(g, {}, {0: 2, 1: 2})
        with pytest.raises(DegenerateSpectrum):
            ham.spectral_gap_gamma(h)

    def test_gap_invariant_under_relabeling(self):
        base = aklt.aklt_hamiltonian(G.chain(6, closed=True))
        gamma = ham.spectral_gap_gamma(base)
        relabeled = G.Hypergraph(
            tuple(range(6)),
            tuple(tuple(sorted(((v * 5 + 2) % 6 for v in e))) for e in G.chain(6, closed=True).edges))
        other = aklt.aklt_hamiltonian(relabeled)
        assert abs(ham.spectral_gap_gamma(other) - gamma) < 1e-8

    def test_iterative_matches_dense(self, chain4):
        vals, _ = linalg.eigh(oracles.hamiltonian(chain4))
        dense = vals[vals >= 1e-9][0]
        iterative = ham.spectral_gap_gamma(chain4)
        assert abs(dense - iterative) < 1e-7


class TestSpectralProfile:
    def test_chain_g_and_s(self, chain4):
        structure = ham.commutation_structure(chain4)
        rank, _ = ham.ground_space(chain4)
        assert structure.g == 2
        assert abs(structure.s - 0.5) < 1e-9
        assert rank == 1

    def test_honeycomb_interior_g(self):
        g = G.honeycomb_lattice(2, 2, periodic=True)
        h = aklt.aklt_hamiltonian(g)
        structure = ham.commutation_structure(h)
        assert structure.g == 4
        assert abs(structure.s - 0.5) < 1e-9

    def test_commuting_family(self):
        h = commuting_family()
        structure = ham.commutation_structure(h)
        assert structure.g == 0
        assert structure.s == 0.0
        assert structure.zeta == 0.0

    def test_chain_inequalities(self, chain4):
        prof = ham.commutation_structure(chain4)
        s2 = prof.s ** 2
        assert prof.zeta <= s2 * prof.g_tilde + 1e-12
        assert s2 * prof.g_tilde <= s2 * prof.g ** 2 + 1e-12
        assert s2 * prof.g ** 2 <= prof.g ** 2 + 1e-12

    def test_ordering_must_be_permutation(self, chain4):
        with pytest.raises(InputError):
            ham.commutation_structure(chain4, ordering=((0, 1),))

    def test_ordering_changes_zeta(self, chain4):
        edges = chain4.graph.edges
        ring = ham.commutation_structure(chain4, edges).zeta
        swapped = ham.commutation_structure(
            chain4, (edges[0], edges[3], edges[1], edges[2])).zeta
        assert ring != pytest.approx(swapped)

    def test_best_ordering_not_worse(self, chain4):
        default = ham.commutation_structure(chain4).zeta
        _, best = ham.best_zeta_ordering(chain4)
        assert best <= default + 1e-12

    def test_s_conventions_agree_on_aklt(self, chain4):
        """Max over noncommuting pairs equals max over all pairs once unit
        singular values are filtered out."""
        structure = ham.commutation_structure(chain4)
        all_pairs = max(structure.pair_s.values())
        assert abs(structure.s - all_pairs) < 1e-12

    def test_profile_invariant_chain_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            dims = [int(rng.integers(2, 4)) for _ in range(3)]
            h = ham.random_ff_instance(
                int(rng.integers(2 ** 31)), (0, 1, 2), dims,
                ((0, 1), (1, 2)), ground_rank=1)
            prof = ham.commutation_structure(h)
            s2 = prof.s ** 2
            assert prof.zeta <= s2 * prof.g_tilde + 1e-12
            assert s2 * prof.g_tilde <= s2 * prof.g ** 2 + 1e-12
            assert s2 * prof.g ** 2 <= prof.g ** 2 + 1e-12
            assert ham.spectral_gap_gamma(h) > 0


class TestRandomInstance:
    def test_deterministic(self):
        a = ham.random_ff_instance(7, (0, 1, 2), (2, 2, 2), ((0, 1), (1, 2)), 1)
        b = ham.random_ff_instance(7, (0, 1, 2), (2, 2, 2), ((0, 1), (1, 2)), 1)
        for e in a.graph.edges:
            assert np.array_equal(a.projectors[e], b.projectors[e])

    def test_frustration_free(self):
        h = ham.random_ff_instance(3, (0, 1, 2), (2, 2, 2), ((0, 1), (1, 2)), 1)
        vals, _ = linalg.eigh(oracles.hamiltonian(h))
        assert vals[0] < 1e-9

    def test_full_rank_forces_zero_projectors(self):
        h = ham.random_ff_instance(5, (0, 1), (2, 2), ((0, 1),), ground_rank=4)
        assert np.allclose(h.projectors[(0, 1)], 0)

    def test_infeasible_rank(self):
        with pytest.raises(InputError):
            ham.random_ff_instance(0, (0, 1), (2, 2), ((0, 1),), ground_rank=5)

    def test_requested_projector_rank_infeasible(self):
        with pytest.raises(InputError):
            ham.random_ff_instance(0, (0, 1), (2, 2), ((0, 1),), 1,
                                   projector_ranks={(0, 1): 4})


class TestSerialization:
    def test_round_trip(self, tmp_path, chain4):
        path = tmp_path / "h.npz"
        ham.save_hamiltonian(chain4, path)
        loaded = ham.load_hamiltonian(path)
        assert loaded.graph == chain4.graph
        assert loaded.node_dims == chain4.node_dims
        for e in chain4.graph.edges:
            assert np.allclose(loaded.projectors[e], chain4.projectors[e])

    def test_malformed_container(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, manifest="{}")
        with pytest.raises(InputError):
            ham.load_hamiltonian(path)
