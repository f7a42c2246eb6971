import itertools

import numpy as np
import pytest

from ffverify import aklt, graph as G, hamiltonian as ham, linalg
from ffverify.errors import (DegenerateSpectrum, InputError, InvariantViolation,
                             NotFrustrationFree)
from ffverify.tolerances import COMMUTE_TOL

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

    def test_projectors_validated_without_svd(self, monkeypatch):
        def refusing(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", refusing)
        h = aklt.aklt_hamiltonian(G.square_lattice(3, 3, periodic=True))
        assert len(h.projectors) == 18

    def test_missing_node_dimension(self):
        with pytest.raises(InputError, match=r"no dimension for nodes \[1\]"):
            ham.FFHamiltonian(G.chain(2), {(0, 1): np.zeros((4, 4))}, {0: 2})

    def test_violated_profile_chain_is_an_invariant_violation(self):
        # zeta = 1 exceeds s^2 g~ = 0.25, which no ordering allows
        with pytest.raises(InvariantViolation, match="profile chain violated"):
            ham.CommutationStructure(g=1, s=0.5, g_tilde=1, zeta=1.0, ordering=())


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
            assert linalg.norm_below(pe @ q0 - q0 @ pe, 1e-9)

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
        """Exhaustive at 4 edges, the graph's edge order at 8 and 9 edges."""
        for h in (chain4, aklt.aklt_hamiltonian(G.chain(8, closed=True)),
                  aklt.aklt_hamiltonian(G.chain(9))):
            default = ham.commutation_structure(h).zeta
            ordering, best = ham.best_zeta_ordering(h)
            assert best <= default + 1e-12
            assert ham.commutation_structure(h, ordering).zeta == best

    def test_s_conventions_agree_on_aklt(self, chain4):
        """Max over noncommuting pairs equals max over all pairs once unit
        singular values are filtered out."""
        structure = ham.commutation_structure(chain4)
        pair_s, _ = chain4._pair_data
        all_pairs = max(pair_s.values())
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


def _pair_data_by_all_pairs(h):
    """`FFHamiltonian._pair_data` by a scan over every pair of edges, in
    `itertools.combinations` order: the oracle of its keys, values and order."""
    pair_s, noncomm = {}, {e: [] for e in h.graph.edges}
    for e, f in itertools.combinations(h.graph.edges, 2):
        if not set(e) & set(f):
            continue
        nodes = tuple(sorted(set(e) | set(f)))
        a = linalg.embed(h.projectors[e], e, nodes, h.node_dims)
        b = linalg.embed(h.projectors[f], f, nodes, h.node_dims)
        if linalg.operator_norm(a @ b - b @ a) > COMMUTE_TOL:
            noncomm[e].append(f)
            noncomm[f].append(e)
        pair_s[frozenset((e, f))] = linalg.largest_nonunit_singular_value(a @ b)
    return pair_s, noncomm


def _random_three_node_instance(seed):
    """Up to six random 3-node edges on 3 to 6 qubits, in random order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    triples = list(itertools.combinations(range(n), 3))
    picked = rng.choice(len(triples), size=int(rng.integers(1, min(6, len(triples)) + 1)),
                        replace=False)
    edges = [tuple(int(v) for v in rng.permutation(triples[i])) for i in picked]
    return ham.random_ff_instance(seed, range(n), [2] * n, edges, ground_rank=1)


@pytest.mark.parametrize("make", [
    *(lambda seed=seed: _random_three_node_instance(seed) for seed in range(12)),
    lambda: aklt.aklt_hamiltonian(G.chain(7, closed=True)),
    lambda: aklt.aklt_hamiltonian(G.chain(6)),
    lambda: aklt.aklt_hamiltonian(G.square_lattice(3, 3, periodic=True)),
    lambda: aklt.aklt_hamiltonian(G.honeycomb_lattice(2, 2)),
    lambda: aklt.aklt_hamiltonian(G.honeycomb_lattice(2, 2, periodic=True)),
], ids=[*(f"three-node-{seed}" for seed in range(12)), "closed-chain-7", "open-chain-6",
        "periodic-square-3x3", "honeycomb-2x2", "periodic-honeycomb-2x2"])
def test_pair_data_matches_all_pairs_scan(make):
    """Pairs found through the incidence map: the same keys, values and
    insertion order as the scan over all pairs."""
    h = make()
    pair_s, noncomm = h._pair_data
    want_s, want_noncomm = _pair_data_by_all_pairs(h)
    assert list(pair_s.items()) == list(want_s.items())
    assert list(noncomm.items()) == list(want_noncomm.items())


@pytest.mark.parametrize("n", [8, 16])
def test_pair_data_embeds_each_class_once(n, monkeypatch):
    """A closed AKLT chain's adjacent pairs fall into three classes up to node
    labels (a bond and the next, and the two pairs through the closing bond),
    whatever its length: each class embeds its two projectors once."""
    embeds = []
    embed = linalg.embed

    def counting(*args):
        embeds.append(args[1:3])
        return embed(*args)

    monkeypatch.setattr(linalg, "embed", counting)
    pair_s, noncomm = aklt.aklt_hamiltonian(G.chain(n, closed=True))._pair_data
    assert len(pair_s) == n
    assert len(embeds) == 6
    assert all(len(partners) == 2 for partners in noncomm.values())


def _pair_definitions(h):
    """Commutation flags by a dense commutator, and s_jk, for every pair of
    edges sharing a node, both on the pair's joint support (edges with
    disjoint supports commute exactly)."""
    flags, s_jk = {}, {}
    edges = h.graph.edges
    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            if not set(e) & set(f):
                continue
            nodes = tuple(sorted(set(e) | set(f)))
            a = linalg.embed(h.projectors[e], e, nodes, h.node_dims)
            b = linalg.embed(h.projectors[f], f, nodes, h.node_dims)
            key = frozenset((e, f))
            flags[key] = np.linalg.norm(a @ b - b @ a, 2) > COMMUTE_TOL
            s_jk[key] = linalg.largest_nonunit_singular_value(a @ b)
    return flags, s_jk


def _profile_from_definitions(edges, flags, s_jk, ordering):
    """(g, s, zeta, g~) as the paper defines them, for one ordering."""
    def noncommuting(e, f):
        return flags.get(frozenset((e, f)), False)

    g = max((sum(noncommuting(e, f) for f in edges if f != e) for e in edges), default=0)
    s = max((s_jk[k] for k, flag in flags.items() if flag), default=0.0)
    # A_k: the edges before k in the ordering that do not commute with k
    a_sets = {k: {j for j in ordering[:ordering.index(k)] if noncommuting(j, k)}
              for k in ordering}
    g_k = {k: len(a) for k, a in a_sets.items()}
    zeta = max((sum(g_k[k] * s_jk[frozenset((j, k))] ** 2
                    for k in ordering if j in a_sets[k]) for j in ordering), default=0.0)
    g_tilde = max((sum(g_k[k] for k in ordering if j in a_sets[k]) for j in ordering),
                  default=0)
    return g, s, zeta, g_tilde


def _triangle_instance(seed):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(2, 4, size=3)]
    return ham.random_ff_instance(seed, (0, 1, 2), dims, ((0, 1), (1, 2), (0, 2)),
                                  ground_rank=int(rng.integers(1, 3)))


class TestProfileDefinitions:
    """commutation_structure against g, s, zeta and g~ computed straight from
    their definitions, equal to the last bit on shuffled orderings."""

    @pytest.mark.parametrize("make", [
        lambda: aklt.aklt_hamiltonian(G.chain(7, closed=True)),
        lambda: aklt.aklt_hamiltonian(G.square_lattice(3, 3, periodic=True)),
        lambda: aklt.aklt_hamiltonian(G.honeycomb_lattice(2, 2, periodic=True)),
        *[lambda seed=seed: _triangle_instance(seed) for seed in range(8)],
    ], ids=["chain7-closed", "square3x3-periodic", "honeycomb2x2-periodic",
            *[f"triangle-{seed}" for seed in range(8)]])
    def test_profile_matches_definitions(self, make):
        h = make()
        edges = h.graph.edges
        flags, s_jk = _pair_definitions(h)
        rng = np.random.default_rng(len(edges))
        orderings = [edges] + [tuple(edges[i] for i in rng.permutation(len(edges)))
                               for _ in range(4)]
        for ordering in orderings:
            prof = ham.commutation_structure(h, ordering)
            assert prof.ordering == ordering
            assert (prof.g, prof.s, prof.zeta, prof.g_tilde) == \
                _profile_from_definitions(edges, flags, s_jk, ordering)

    def test_best_ordering_is_the_brute_force_minimum(self):
        h = aklt.aklt_hamiltonian(G.chain(7, closed=True))
        edges = h.graph.edges
        flags, s_jk = _pair_definitions(h)

        def zeta_of(ordering):
            return _profile_from_definitions(edges, flags, s_jk, ordering)[2]

        best = min(itertools.permutations(edges), key=zeta_of)
        assert ham.best_zeta_ordering(h) == (best, zeta_of(best))


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

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 5)], ids=["short", "long"])
    def test_one_dimension_per_node(self, dims):
        with pytest.raises(InputError, match=f"^{len(dims)} dimensions given for 3 nodes$"):
            ham.random_ff_instance(0, (0, 1, 2), dims, ((0, 1), (1, 2)), 1)


class TestApplyLength:
    """apply and apply_edge take a full-space vector or a sector vector; any
    other length is an InputError naming the lengths accepted."""

    def test_instance_without_sector(self):
        h = ham.random_ff_instance(1, (0, 1, 2), (2, 2, 2), ((0, 1), (1, 2)), 1)
        for apply in (h.apply, lambda v: h.apply_edge((0, 1), v)):
            with pytest.raises(InputError, match=r"length 5: expected 8 \(full space\)$"):
                apply(np.ones(5))
            assert apply(np.ones(8)).shape == (8,)

    def test_aklt_chain_with_sector(self, chain4):
        for apply in (chain4.apply, lambda v: chain4.apply_edge((0, 1), v)):
            for vec in (np.ones(5), np.ones((80, 2))):
                with pytest.raises(InputError, match=r"length \d+: expected 81 \(full "
                                                     r"space\) or 19 \(sector\)"):
                    apply(vec)
            assert apply(np.ones(81)).shape == (81,)
            assert apply(np.ones((19, 2))).shape == (19, 2)
